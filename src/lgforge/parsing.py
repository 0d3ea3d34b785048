"""Parser for the Laurent polynomial expression grammar.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := integer | variable | parameter | '(' expr ')'

Variables are ``x,y,z,w`` (rank <= 4) or ``x1..xn``; parameters are
``a1..ar`` (plain ``a`` is accepted when r = 1).  Implicit multiplication
is not allowed.  Rational sub-expressions are accepted only when, after
full expansion, every denominator is a single monomial; parsing then
yields the expanded canonical Laurent polynomial.  A power is refused
when it could expand past ``_POWER_BUDGET`` terms, or give a coefficient
of more than ``_COEFF_BITS_BUDGET`` bits, and parentheses may nest at most
``_DEPTH_BUDGET`` levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentError, LaurentPolynomial, ParamPoly, flat_terms


class ExpressionError(LaurentError):
    """Syntax or semantic error in a polynomial expression."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(\^|\*|/|\+|-|\(|\)))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


# most terms that a power of a base with several terms may expand to
_POWER_BUDGET = 2000
# most bits that a power may give a numerator or denominator of a coefficient
_COEFF_BITS_BUDGET = 2**18
# most levels of nested parentheses, CPython's limit; each level takes four frames
_DEPTH_BUDGET = 200


def _power(base: LaurentPolynomial, e: int) -> LaurentPolynomial:
    """base ** e, or ExpressionError before any multiplication when the power
    could be too large.

    Terms are counted flattened: a torus term whose coefficient has k
    parameter terms counts k times.  The power of a t-term base can have
    C(|e|+t-1, t-1) terms; it is built as C(|e|+i, i) for i = 1..t-1, which
    only grows with i, so the check stops at the first value over
    ``_POWER_BUDGET``.  A numerator or denominator n raised to |e| has at most
    |e|*ceil(log2 |n|) bits, checked against ``_COEFF_BITS_BUDGET``."""
    scalars = flat_terms(base).values()
    bound = 1
    for i in range(1, len(scalars)):
        bound = bound * (abs(e) + i) // i
        if bound > _POWER_BUDGET:
            raise ExpressionError(
                f"a {len(scalars)}-term base to the power {e} may expand to"
                f" more than {_POWER_BUDGET} terms"
            )
    # (|n| - 1).bit_length() is ceil(log2 |n|), so coefficients of +-1 never count
    bits = max(
        ((abs(n) - 1).bit_length() for q in scalars for n in (q.numerator, q.denominator)),
        default=0,
    )
    if abs(e) * bits > _COEFF_BITS_BUDGET:
        raise ExpressionError(
            f"a base with {bits}-bit coefficients to the power {e} may give a"
            f" coefficient of more than {_COEFF_BITS_BUDGET} bits"
        )
    return base ** e


@dataclass
class _Rat:
    """The rational function num/den.  ``den`` is None when the value is the
    Laurent polynomial ``num``, so sums, products, powers and quotients by a
    monomial are one Laurent operation each.  After a division by an
    expression of several terms, ``den`` holds that many-term denominator,
    unreduced, and num/den arithmetic runs until a denominator of one term
    folds back into ``num``."""

    num: LaurentPolynomial
    den: LaurentPolynomial | None = None

    def _den(self) -> LaurentPolynomial:
        if self.den is None:
            return LaurentPolynomial.one(self.num.rank, self.num.param_rank)
        return self.den

    @staticmethod
    def _fraction(num: LaurentPolynomial, den: LaurentPolynomial) -> "_Rat":
        if len(den.terms) == 1:
            return _Rat(num * den ** -1)
        return _Rat(num, den)

    def __add__(self, other: "_Rat") -> "_Rat":
        if self.den == other.den:
            return _Rat(self.num + other.num, self.den)
        return _Rat._fraction(
            self.num * other._den() + other.num * self._den(), self._den() * other._den()
        )

    def __neg__(self) -> "_Rat":
        return _Rat(-self.num, self.den)

    def __sub__(self, other: "_Rat") -> "_Rat":
        return self + (-other)

    def __mul__(self, other: "_Rat") -> "_Rat":
        if self.den is None and other.den is None:
            return _Rat(self.num * other.num)
        return _Rat._fraction(self.num * other.num, self._den() * other._den())

    def __truediv__(self, other: "_Rat") -> "_Rat":
        if other.num.is_zero:
            raise ExpressionError("division by zero")
        if self.den is None and other.den is None and len(other.num.terms) == 1:
            return _Rat(self.num * other.num ** -1)
        return _Rat._fraction(self.num * other._den(), self._den() * other.num)

    def __pow__(self, e: int) -> "_Rat":
        if e >= 0:
            if self.den is None:
                return _Rat(_power(self.num, e))
            return _Rat._fraction(_power(self.num, e), _power(self.den, e))
        if self.num.is_zero:
            raise ExpressionError("division by zero")
        if self.den is None and len(self.num.terms) == 1:
            return _Rat(_power(self.num, e))
        return _Rat._fraction(_power(self._den(), -e), _power(self.num, -e))


class _Parser:
    def __init__(self, text: str, rank: int, param_rank: int):
        self.text = text
        self.rank = rank
        self.param_rank = param_rank
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.advance()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> LaurentPolynomial:
        value = self.expr()
        kind, _ = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input in {self.text!r}")
        if value.den is not None:
            raise ExpressionError(
                "denominator does not expand to a single monomial: "
                f"{value.den.render()}"
            )
        return value.num

    def expr(self) -> _Rat:
        kind, value = self.peek()
        negate = False
        if kind == "op" and value in ("-", "+"):
            self.advance()
            negate = value == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                rhs = self.term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def term(self) -> _Rat:
        acc = self.factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                rhs = self.factor()
                acc = acc * rhs if value == "*" else acc / rhs
            else:
                return acc

    def factor(self) -> _Rat:
        base = self.base()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            sign = 1
            kind, value = self.peek()
            if kind == "op" and value == "-":
                self.advance()
                sign = -1
            kind, value = self.advance()
            if kind != "int":
                raise ExpressionError(f"expected integer exponent in {self.text!r}")
            return base ** (sign * value)
        return base

    def base(self) -> _Rat:
        kind, value = self.advance()
        if kind == "int":
            return _Rat(LaurentPolynomial.constant(value, self.rank, self.param_rank))
        if kind == "name":
            return _Rat(self.named(value))
        if kind == "op" and value == "(":
            if self.depth == _DEPTH_BUDGET:
                raise ExpressionError(f"parentheses nested more than {_DEPTH_BUDGET} levels deep")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ExpressionError(f"unexpected token {value!r} in {self.text!r}")

    def named(self, name: str) -> LaurentPolynomial:
        if name in ("x", "y", "z", "w") and self.rank <= 4:
            index = "xyzw".index(name)
            if index >= self.rank:
                raise ExpressionError(
                    f"variable {name!r} needs rank > {index}, declared rank is {self.rank}"
                )
            return LaurentPolynomial.variable(index, self.rank, self.param_rank)
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            index = int(m.group(1)) - 1
            if not 0 <= index < self.rank:
                raise ExpressionError(f"variable {name!r} out of range for rank {self.rank}")
            return LaurentPolynomial.variable(index, self.rank, self.param_rank)
        if name == "a" and self.param_rank == 1:
            name = "a1"
        m = re.fullmatch(r"a(\d+)", name)
        if m:
            index = int(m.group(1)) - 1
            if not 0 <= index < self.param_rank:
                raise ExpressionError(
                    f"parameter {name!r} out of range for parameter rank {self.param_rank}"
                )
            coeff = ParamPoly.parameter(self.param_rank, index)
            return LaurentPolynomial.from_terms(
                self.rank, self.param_rank, {(0,) * self.rank: coeff}
            )
        raise ExpressionError(f"undeclared variable or parameter {name!r}")


def rational(value) -> Fraction:
    """An exact rational from JSON: an integer (not a bool) or a string such
    as "-3/4".  Floats, which JSON reads inexactly, bools and zero
    denominators raise ExpressionError."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ExpressionError(f"expected an integer or a string rational, got {value!r}")


def parse(text: str, rank: int, param_rank: int = 0) -> LaurentPolynomial:
    """Parse an expression into canonical form at the given ranks."""
    return _Parser(text, rank, param_rank).parse()
