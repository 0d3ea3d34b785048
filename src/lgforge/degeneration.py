"""Degenerations of LG models.

Two mechanisms: coefficient limits of parametrized models (a set of
parameters sent to 0, or a direction in the parameter lattice), and the
exact minimal/maximal support computation for a direction given by an
effective divisor on a complete fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import geometry
from .laurent import LaurentError, LaurentPolynomial, flat_terms, from_flat
from .toric import FanData


class DegenerationError(LaurentError):
    pass


@dataclass(frozen=True)
class DivisorOnFan:
    """Rational ray coefficients of a divisor; must be effective."""

    fan: FanData
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.fan.n_rays:
            raise DegenerationError("one coefficient per ray is required")
        if not self.section_polytope_vertices:
            raise DegenerationError(
                "section polytope is empty: the divisor is not effective"
            )

    @cached_property
    def section_polytope_vertices(self):
        """Sorted vertices m/(t den) of {m : <m, v_i> >= -d_i}, one per ray (m, t) with
        t > 0 of the pointed cone {<m, v_i> + d_i den t >= 0, t >= 0}; t = 0 means unbounded."""
        den = lcm(*(c.denominator for c in self.coefficients))
        normals = [ray + (int(c * den),) for ray, c in zip(self.fan.rays, self.coefficients)]
        rays = geometry.extreme_rays(normals + [(0,) * self.fan.rank + (1,)])
        if any(t == 0 for *_, t in rays):
            raise DegenerationError(
                "rays do not surround the origin; section polytope would be unbounded"
            )
        return sorted(tuple(Fraction(x, t * den) for x in m) for *m, t in rays)


@dataclass(frozen=True)
class DegenerationResult:
    f_min_support: tuple[int, ...]
    f_max_support: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]
    polytope_vertices: tuple[tuple[Fraction, ...], ...]

    def min_rays(self, fan: FanData):
        return tuple(fan.rays[i] for i in self.f_min_support)

    def max_rays(self, fan: FanData):
        return tuple(fan.rays[i] for i in self.f_max_support)


def direction_degeneration(divisor: DivisorOnFan) -> DegenerationResult:
    """Per-ray intervals of h_i(m) = d_i + <m, v_i> over the section polytope.

    Rays with minimum 0 survive in the minimal degeneration; rays with
    maximum 0 survive in the maximal one.
    """
    vertices = divisor.section_polytope_vertices
    fan = divisor.fan
    intervals = []
    f_min = []
    f_max = []
    for i, ray in enumerate(fan.rays):
        values = [
            divisor.coefficients[i]
            + sum(Fraction(v) * r for v, r in zip(vertex, ray))
            for vertex in vertices
        ]
        lo, hi = min(values), max(values)
        intervals.append((lo, hi))
        if lo == 0:
            f_min.append(i)
        if hi == 0:
            f_max.append(i)
    return DegenerationResult(
        f_min_support=tuple(f_min),
        f_max_support=tuple(f_max),
        intervals=tuple(intervals),
        polytope_vertices=tuple(vertices),
    )


def parameter_limit(f: LaurentPolynomial, dying) -> LaurentPolynomial:
    """Send the given parameters to 0; terms vanishing in the limit drop.

    Each dying parameter must appear with nonnegative exponents only,
    otherwise the limit diverges and an error is raised.
    """
    values = {int(i): Fraction(0) for i in dying}
    return f.substitute_parameters(values)


def parameter_direction_limit(f: LaurentPolynomial, direction) -> LaurentPolynomial:
    """Leading part of f along a direction in the parameter lattice.

    Every parameter monomial a^k is given the order <direction, k>; only
    monomials of globally minimal order survive.  This is the coefficient
    limit under a_i -> eps^(direction_i) with eps -> 0, after rescaling by
    the minimal order.
    """
    w = tuple(Fraction(x) for x in direction)
    if f.param_rank == 0 or f.is_zero:
        return f
    if len(w) != f.param_rank:
        raise DegenerationError("direction length must equal the parameter rank")
    best, kept = None, {}
    for key, c in flat_terms(f).items():
        order = sum(wi * e for wi, e in zip(w, key))  # zip stops at the parameter part
        if best is None or order < best:
            best, kept = order, {}
        if order == best:
            kept[key] = c
    return from_flat(f.rank, f.param_rank, kept)


def restrict_model(f: LaurentPolynomial, keep) -> LaurentPolynomial:
    """Drop all terms outside ``keep`` (a subset of the support)."""
    keep_set = {tuple(int(x) for x in exp) for exp in keep}
    support = set(f.terms)
    if not keep_set <= support:
        missing = sorted(keep_set - support)
        raise DegenerationError(f"keep set is not inside the support: {missing}")
    return LaurentPolynomial(
        f.rank, f.param_rank, {e: c for e, c in f.terms.items() if e in keep_set}
    )
