"""The parser against the num/den parser it replaced, kept here as the slow
oracle: every value is a pair num/den, and a denominator of one term is
divided out after every operation.  Its powers go through the parser's
``_power``, so both refuse a power past the budgets with the same message;
the algebra of num/den pairs stays independent.  Hypothesis compares the two
on grammar strings, and both run on every expression the catalog parses."""

import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import catalog, mutation
from lgforge.catalog import load_catalog, verify_entry
from lgforge.laurent import LaurentPolynomial, ParamPoly
from lgforge.parsing import (
    _COEFF_BITS_BUDGET,
    _DEPTH_BUDGET,
    _POWER_BUDGET,
    ExpressionError,
    _power,
    _tokenize,
    parse,
)


@dataclass
class _Rat:
    """Rational function num/den with den kept a monomial whenever possible."""

    num: LaurentPolynomial
    den: LaurentPolynomial

    def _simplify(self) -> "_Rat":
        if len(self.den.terms) == 1:
            q = self.num * (self.den ** -1)
            return _Rat(q, LaurentPolynomial.one(q.rank, q.param_rank))
        return self

    def __add__(self, other: "_Rat") -> "_Rat":
        if self.den == other.den:
            return _Rat(self.num + other.num, self.den)._simplify()
        return _Rat(
            self.num * other.den + other.num * self.den, self.den * other.den
        )._simplify()

    def __neg__(self) -> "_Rat":
        return _Rat(-self.num, self.den)

    def __sub__(self, other: "_Rat") -> "_Rat":
        return self + (-other)

    def __mul__(self, other: "_Rat") -> "_Rat":
        return _Rat(self.num * other.num, self.den * other.den)._simplify()

    def __truediv__(self, other: "_Rat") -> "_Rat":
        if other.num.is_zero:
            raise ExpressionError("division by zero")
        return _Rat(self.num * other.den, self.den * other.num)._simplify()

    def __pow__(self, e: int) -> "_Rat":
        if e >= 0:
            return _Rat(_power(self.num, e), _power(self.den, e))._simplify()
        if self.num.is_zero:
            raise ExpressionError("division by zero")
        return _Rat(_power(self.den, -e), _power(self.num, -e))._simplify()


class _Parser:
    def __init__(self, text: str, rank: int, param_rank: int):
        self.text = text
        self.rank = rank
        self.param_rank = param_rank
        self.tokens = _tokenize(text)
        self.pos = 0

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
        value = value._simplify()
        if len(value.den.terms) != 1:
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
        one = LaurentPolynomial.one(self.rank, self.param_rank)
        if kind == "int":
            return _Rat(LaurentPolynomial.constant(value, self.rank, self.param_rank), one)
        if kind == "name":
            return _Rat(self.named(value), one)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
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


def oracle_parse(text: str, rank: int, param_rank: int = 0) -> LaurentPolynomial:
    return _Parser(text, rank, param_rank).parse()


def outcome(parser, text, rank, param_rank):
    """The parsed polynomial with its rendering, or the error's type and message."""
    try:
        f = parser(text, rank, param_rank)
    except Exception as err:  # noqa: BLE001 - any error must match the oracle's
        return type(err), str(err)
    return f, f.render()


@st.composite
def expressions(draw, rank, param_rank, depth=2):
    """A string of the grammar with parentheses nested up to ``depth``
    levels.  Quotients by monomials and by sums, negative powers, zeros (0
    and sums such as x-x, in one string in three) and undeclared names (in
    one in eight) all occur.  A power of a many-term denominator can still
    reach the term budget, which both parsers then report."""
    valid = ["xyzw"[i] for i in range(min(rank, 4))] + [f"x{i + 1}" for i in range(rank)]
    valid += [f"a{i + 1}" for i in range(param_rank)] + (["a"] if param_rank == 1 else [])
    invalid = ["w", f"x{rank + 1}", f"a{param_rank + 1}", "a", "q"]
    undeclared = draw(st.integers(0, 7)) == 0
    zeros = draw(st.integers(0, 2)) == 0

    def name():
        if undeclared and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(invalid))
        return draw(st.sampled_from(valid))

    def base(d):
        kind = draw(st.integers(0, 9 if d else 4))
        if kind == 0:
            value = draw(st.sampled_from([1, 2, 3, 12] + [0] * zeros))
            return str(value), draw(st.integers(-2, 3))
        if kind <= 4 or (kind == 5 and not zeros):
            return name(), draw(st.integers(-4, 4))
        if kind == 5:  # a sum that is zero
            n = name()
            return f"({n}-{n})", draw(st.integers(-1, 1))
        return "(" + expr(d - 1) + ")", draw(st.integers(-2, 3 if d < depth else 2))

    def factor(d):
        text, e = base(d)
        if draw(st.booleans()):
            return text
        return f"{text}^{e}"

    def term(d):
        out = factor(d)
        for _ in range(draw(st.integers(0, 2))):
            out += draw(st.sampled_from(["*", "/"])) + factor(d)
        return out

    def expr(d):
        out = draw(st.sampled_from(["", "", "-", "+"])) + term(d)
        for _ in range(draw(st.integers(0, 2))):
            out += draw(st.sampled_from(["+", "-"])) + term(d)
        return out

    text = expr(depth)
    if draw(st.integers(0, 19)) == 0:  # a cut string exercises the syntax errors
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def parser_inputs(draw):
    rank = draw(st.integers(1, 4))
    param_rank = draw(st.integers(0, 2))
    return draw(expressions(rank, param_rank)), rank, param_rank


@settings(deadline=None, max_examples=400)
@given(parser_inputs())
def test_parse_matches_oracle(inputs):
    assert outcome(parse, *inputs) == outcome(oracle_parse, *inputs)


@pytest.mark.parametrize(
    "text, rank, param_rank",
    [
        ("x/(1/(1+y))", 2, 0),
        ("(1+x)/(1+x)", 1, 0),
        ("1/(1+x) - 1/(1+x)", 1, 0),
        ("0/(1+x)", 1, 0),
        ("(x^2-1)/(x-1)", 1, 0),
        ("x/(a1+a2)", 1, 2),
        ("((a1+a2)*x)^-1", 1, 2),
        ("(2*a1*x)^-3/(a1^-1*y)", 2, 1),
        ("y/(x-x)", 2, 0),
        ("(1-1)^-2", 1, 0),
        ("(1/(1+x))^0", 1, 0),
        ("(1/(x+y))^-2*x^3", 2, 0),
        ("(x+1/(1+x))*(1+x)", 1, 0),
    ],
)
def test_denominator_edge_cases_match_oracle(text, rank, param_rank):
    assert outcome(parse, text, rank, param_rank) == outcome(oracle_parse, text, rank, param_rank)


@pytest.fixture(scope="module")
def catalog_expressions():
    """(text, rank, param_rank) of every parse made by loading the catalog and
    verifying each entry, the chain steps' factors included."""
    seen = set()

    def recording(text, rank, param_rank=0):
        seen.add((text, rank, param_rank))
        return parse(text, rank, param_rank)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "parse", recording)
        mp.setattr(mutation, "parse", recording)
        entries = load_catalog()
        for entry in entries:
            verify_entry(entry, 2, entries)
    return sorted(seen)


def test_every_catalog_expression_parses_as_the_oracle_does(catalog_expressions):
    assert len(catalog_expressions) > 150
    for text, rank, param_rank in catalog_expressions:
        f = parse(text, rank, param_rank)
        assert (f, f.render()) == outcome(oracle_parse, text, rank, param_rank), text


@pytest.mark.parametrize(
    "text, rank",
    [
        ("(1+x+y+z)^400", 3),
        ("(1+x+y+z)^21", 3),
        ("(1+x)^-5000", 1),
        ("(x/(1+x))^5000", 1),
        ("((1+x+y)^40)^3", 2),
    ],
)
def test_power_past_the_budget_fails_fast(text, rank):
    start = time.perf_counter()
    with pytest.raises(ExpressionError, match=f"more than {_POWER_BUDGET} terms"):
        parse(text, rank)
    assert time.perf_counter() - start < 1.0


def test_power_budget_boundary_and_monomial_powers():
    assert len(parse("(1+x+y+z)^20", 3)) == 1771  # C(23, 3), within the budget
    assert parse("(2*x*y)^-100000", 2).terms == {(-100000, -100000): Fraction(1, 2**100000)}


@pytest.mark.parametrize(
    "text, rank, params, message",
    [
        ("((a1+a2+a3+a4+a5)*x)^30", 1, 5, "5-term base to the power 30 may expand to more"),
        ("((a1+a2)*(x+y))^1000", 2, 2, f"more than {_POWER_BUDGET} terms"),
        ("(3*x)^10000000", 1, 0, f"more than {_COEFF_BITS_BUDGET} bits"),
        ("(3*x)^-30000000", 1, 0, f"more than {_COEFF_BITS_BUDGET} bits"),
        ("(x/3)^-30000000", 1, 0, f"more than {_COEFF_BITS_BUDGET} bits"),
        ("(3*a1*x)^10000000", 1, 1, f"more than {_COEFF_BITS_BUDGET} bits"),
    ],
)
def test_power_past_the_flattened_or_coefficient_budget_fails_fast(text, rank, params, message):
    """Each parse runs in its own process under a timeout, since an unbounded
    power of these takes from seconds to minutes."""
    code = (
        "import time\n"
        "from lgforge.parsing import ExpressionError, parse\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    parse({text!r}, {rank}, {params})\n"
        "except ExpressionError as err:\n"
        "    print(f'{time.perf_counter() - start:.3f} {err}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    seconds, _, error = proc.stdout.partition(" ")
    assert message in error
    assert float(seconds) < 1.0


def test_coefficient_budget_boundary():
    top = _COEFF_BITS_BUDGET
    assert parse(f"(2*x)^{top}", 1).terms == {(top,): 2**top}
    assert parse(f"(x/2)^-{top}", 1).terms == {(-top,): 2**top}
    with pytest.raises(ExpressionError, match=f"more than {top} bits"):
        parse(f"(2*x)^{top + 1}", 1)
    # coefficients of +-1 do not grow, whatever the exponent
    assert parse("(-x)^1000000001", 1).terms == {(1000000001,): -1}
    # five parameter terms to the 12th: C(16, 4) flattened terms, within the budget
    assert len(parse("((a1+a2+a3+a4+a5)*x)^12", 1, 5).terms[(12,)].terms) == 1820


def test_nesting_budget_boundary():
    deep = "(" * _DEPTH_BUDGET + "x" + ")" * _DEPTH_BUDGET
    assert parse(deep, 1) == parse("x", 1)
    with pytest.raises(ExpressionError, match=f"more than {_DEPTH_BUDGET} levels deep"):
        parse("(" + deep + ")", 1)
