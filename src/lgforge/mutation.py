"""Mutations of Laurent polynomials and verification of mutation chains.

A mutation is determined by a primitive weight covector w and a factor
polynomial supported on the hyperplane w = 0; it acts by
x^v -> x^v * a^(w(v)) and is defined exactly when every negative graded
piece is divisible by the corresponding power of the factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from . import period
from .laurent import LaurentError, LaurentPolynomial, ParamPoly, _divide, _ints, laurent_divide
from .parsing import parse, rational


class NotMutableError(LaurentError):
    """The polynomial is not mutable with respect to the given data.

    ``grade`` is the weight of the graded piece that the factor power does
    not divide, and ``term`` the witness: the leading remainder term at
    which that division stopped, in the coordinates of the piece.  The term
    is found by dividing again when it is first read, so a caller that
    only catches the error pays for one division.
    """

    def __init__(self, grade: int, piece: LaurentPolynomial, divisor: LaurentPolynomial):
        super().__init__(grade, piece, divisor)
        self.grade = grade
        self.piece = piece
        self.divisor = divisor

    @cached_property
    def term(self) -> LaurentPolynomial:
        return _divide(self.piece, self.divisor)[1]

    def __str__(self):
        return (
            f"graded piece at weight {self.grade} is not divisible by the factor power"
            f" (remainder term {self.term.render()})"
        )


@dataclass(frozen=True)
class MutationData:
    weight: tuple[int, ...]
    factor: LaurentPolynomial

    def __post_init__(self):
        w = _ints(self.weight, "mutation weight {} is not a vector of integers")
        object.__setattr__(self, "weight", w)
        if all(x == 0 for x in w):
            raise LaurentError("mutation weight must be nonzero")
        g = 0
        for x in w:
            g = gcd(g, abs(x))
        if g != 1:
            raise LaurentError(f"mutation weight {w} is not primitive")
        if len(w) != self.factor.rank:
            raise LaurentError("weight length does not match factor rank")
        if self.factor.is_zero:
            raise LaurentError("mutation factor must be nonzero")
        for exp in self.factor.terms:
            val = sum(a * b for a, b in zip(w, exp))
            if val != 0:
                raise LaurentError(
                    f"factor support {exp} is not on the weight hyperplane (w(v)={val})"
                )


def grade_by_weight(f: LaurentPolynomial, weight) -> dict[int, LaurentPolynomial]:
    """Split f into graded pieces under the weight covector."""
    w = tuple(weight)
    if all(x == 0 for x in w):
        raise LaurentError("grading weight must be nonzero")
    return f.graded_pieces(w)


def _apply(f: LaurentPolynomial, data: MutationData, sign: int) -> LaurentPolynomial:
    factor = data.factor
    if factor.param_rank != f.param_rank and not any(
        isinstance(c, ParamPoly) for c in factor.terms.values()
    ):
        # a factor that uses no parameter acts at any parameter rank
        factor = LaurentPolynomial(f.rank, f.param_rank, factor.terms)
    pieces = grade_by_weight(f, data.weight)
    out = LaurentPolynomial.zero(f.rank, f.param_rank)
    for k, piece in pieces.items():
        power = sign * k
        if power >= 0:
            out = out + piece * (factor ** power)
        else:
            divisor = factor ** -power
            quotient = laurent_divide(piece, divisor)
            if quotient is None:
                raise NotMutableError(k, piece, divisor)
            out = out + quotient
    return out


def mutate(f: LaurentPolynomial, data: MutationData) -> LaurentPolynomial:
    """Apply x^v -> x^v a^(w(v)); raises NotMutableError when not Laurent."""
    return _apply(f, data, +1)


def invert_mutation(g: LaurentPolynomial, data: MutationData) -> LaurentPolynomial:
    """Apply x^v -> x^v a^(-w(v)), the inverse field automorphism."""
    return _apply(g, data, -1)


# -- chains ------------------------------------------------------------------


@dataclass(frozen=True)
class MutationStep:
    data: MutationData

    def describe(self) -> str:
        return f"mutation w={list(self.data.weight)} a={self.data.factor.render()}"


@dataclass(frozen=True)
class CoordStep:
    matrix: tuple[tuple[int, ...], ...]

    def describe(self) -> str:
        return f"coords {list(map(list, self.matrix))}"


@dataclass(frozen=True)
class SubstStep:
    assign: tuple[tuple[int, object], ...]  # (parameter index, rational)

    def describe(self) -> str:
        body = ",".join(f"a{i + 1}={v}" for i, v in self.assign)
        return f"subst {body}"


class ChainFormatError(LaurentError):
    """A chain step in JSON form is malformed."""


def chain_steps_from_json(steps_json, rank: int, param_rank: int, param_index) -> tuple:
    """Chain steps from their JSON form, for polynomials of the given ranks.

    ``param_index`` maps a parameter name to its index.  Each subst step
    lowers the parameter rank that the later steps see.  A malformed step
    raises ChainFormatError naming the step.
    """
    if not isinstance(steps_json, list):
        raise ChainFormatError("a chain must be a JSON list of steps")
    steps = []
    for index, raw in enumerate(steps_json):
        try:
            kind = raw["kind"]
            if kind == "mutation":
                factor = parse(raw["a"], rank, param_rank)
                w = _ints(raw["w"], "'w' must hold JSON integers, got {}")
                steps.append(MutationStep(MutationData(w, factor)))
            elif kind == "coords":
                message = "'matrix' must hold JSON integers, got {}"
                steps.append(CoordStep(tuple(_ints(row, message) for row in raw["matrix"])))
            elif kind == "subst":
                assign = {}
                for name, value in raw["assign"].items():
                    i = param_index(name)
                    if not 0 <= i < param_rank:
                        raise ValueError(f"no parameter {name!r} at parameter rank {param_rank}")
                    assign[i] = rational(value)
                steps.append(SubstStep(tuple(assign.items())))
                param_rank -= len(assign)
            else:
                raise ChainFormatError(f"unknown step kind {kind!r}")
        except KeyError as err:
            raise ChainFormatError(f"chain step {index}: missing key {err}") from err
        except (TypeError, ValueError) as err:
            raise ChainFormatError(f"chain step {index}: {err}") from err
    return tuple(steps)


@dataclass(frozen=True)
class MutationChain:
    start: LaurentPolynomial
    steps: tuple = ()


@dataclass
class StepReport:
    index: int
    description: str
    ok: bool
    detail: str = ""


@dataclass
class ChainReport:
    ok: bool
    steps: list[StepReport] = field(default_factory=list)
    final: LaurentPolynomial | None = None
    detail: str = ""
    series: period.PeriodSeries | None = None  # regularized period of final, if computed
    witness: tuple | None = None  # (degree, expected, got) of a period mismatch


def _mismatch_text(witness) -> str:
    degree, expected, got = witness
    return f"first mismatch at degree {degree}: {expected} vs {got}"


def run_chain(chain: MutationChain, order: int = 10) -> ChainReport:
    """Execute the chain, checking period preservation across each mutation.

    The period is carried from step to step: a mutation's resulting period
    is the next step's starting period, and a coords step keeps it, since a
    unimodular map preserves every constant term.  Only a subst step forces
    a recomputation.
    """
    report = ChainReport(ok=True)
    current = chain.start
    series = None  # regularized period of current, once computed
    for index, step in enumerate(chain.steps):
        try:
            if isinstance(step, MutationStep):
                new = mutate(current, step.data)
                detail = ""
                if current.param_rank == 0:
                    before = series or period.period_coefficients(current, order)
                    series = period.period_coefficients(new, order)
                    witness = period.series_mismatch(before, series)
                    if witness is not None:
                        report.steps.append(
                            StepReport(
                                index,
                                step.describe(),
                                False,
                                f"regularized period not preserved ({_mismatch_text(witness)})",
                            )
                        )
                        report.ok = False
                        report.final = new
                        report.witness = witness
                        return report
                    detail = f"period preserved to order {order}"
                report.steps.append(StepReport(index, step.describe(), True, detail))
                current = new
            elif isinstance(step, CoordStep):
                current = current.apply_monomial_map([list(r) for r in step.matrix])
                report.steps.append(StepReport(index, step.describe(), True))
            elif isinstance(step, SubstStep):
                current = current.substitute_parameters(dict(step.assign))
                series = None
                report.steps.append(StepReport(index, step.describe(), True))
            else:
                raise LaurentError(f"unknown chain step {step!r}")
        except LaurentError as err:
            report.steps.append(StepReport(index, step.describe(), False, str(err)))
            report.ok = False
            report.final = current
            return report
    report.final = current
    report.series = series
    return report


def verify_chain(
    chain: MutationChain,
    expected: LaurentPolynomial,
    order: int = 10,
    modulo_constant: bool = False,
) -> ChainReport:
    """Run the chain and compare its end value with the expected polynomial.

    With ``modulo_constant`` the comparison is period equality up to the
    constant-shift relation, reusing the chain's final period; otherwise it
    is exact equality.
    """
    report = run_chain(chain, order=order)
    if not report.ok:
        return report
    final = report.final
    if modulo_constant:
        shift = period.constant_shift(final, expected)
        series = report.series or period.period_coefficients(final, order)
        witness = period.series_mismatch(
            series, period.period_coefficients(expected, order), shift
        )
        if witness is None:
            report.detail = f"matches expected up to constant shift {shift}"
        else:
            report.ok = False
            report.witness = witness
            report.detail = (
                "final value does not match expected up to constant shift"
                f" ({_mismatch_text(witness)})"
            )
    else:
        if final != expected:
            report.ok = False
            report.detail = "final value differs from expected polynomial"
        else:
            report.detail = "matches expected exactly"
    return report
