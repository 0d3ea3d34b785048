"""Exact convex geometry for lattice point sets in dimension <= 4.

Hulls are computed by exhaustive hyperplane enumeration: every subset of k
affinely independent points of a k-dimensional configuration spans a
candidate hyperplane, and the valid supporting ones give both the facet
system and (through tightness ranks) the vertex set.  Desk-scale inputs
keep this cheap, and everything stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import intlinalg


@dataclass(frozen=True)
class HullData:
    """Convex hull of integer points, with a supporting inequality system.

    ``system`` lists integer pairs ``(a, c)`` meaning ``<a, m> >= c`` for all
    ``m`` in the hull.  Lower-dimensional hulls include their affine-hull
    equalities as opposite inequality pairs, so the system describes the
    hull in any ambient dimension.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    system: tuple[tuple[tuple[int, ...], int], ...]


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def _int_clear(fracs):
    """Scale a rational vector to a primitive integer vector (positive factor)."""
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _hyperplane_through(points, dim):
    """Normal (a, c) of the unique hyperplane through ``points``, or None."""
    base = points[0]
    rows = [[p[i] - base[i] for i in range(dim)] for p in points[1:]]
    kern = intlinalg.kernel_basis(rows) if rows else intlinalg.kernel_basis([[0] * dim])
    kern = [v for v in kern if any(x != 0 for x in v)]
    if len(kern) != 1:
        return None
    a = _primitive(kern[0])
    c = sum(ai * bi for ai, bi in zip(a, base))
    return a, c


def _full_dim_hull(points, dim):
    """Facets and vertices of a full-dimensional configuration (dim >= 1)."""
    facets = set()
    if dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        facets.add(((1,), lo))
        facets.add(((-1,), -hi))
    else:
        for subset in combinations(points, dim):
            hp = _hyperplane_through(list(subset), dim)
            if hp is None:
                continue
            a, c = hp
            vals = [sum(ai * pi for ai, pi in zip(a, p)) for p in points]
            if all(v >= c for v in vals):
                facets.add((a, c))
            elif all(v <= c for v in vals):
                facets.add((tuple(-x for x in a), -c))
    vertices = []
    for p in points:
        tight = [
            list(a)
            for a, c in facets
            if sum(ai * pi for ai, pi in zip(a, p)) == c
        ]
        if tight and intlinalg.rank_rational(tight) == dim:
            vertices.append(p)
    return sorted(facets), vertices


def convex_hull(points) -> HullData:
    """Hull of integer points in Z^n, exact, any (possibly deficient) dimension."""
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    n = len(pts[0])
    base = pts[0]
    diffs = [[p[i] - base[i] for i in range(n)] for p in pts[1:]]
    basis = intlinalg.lattice_basis_of_rows(diffs) if diffs else []
    k = len(basis)

    system: list[tuple[tuple[int, ...], int]] = []
    # affine-hull equalities, as opposite inequality pairs
    if k < n:
        for w in intlinalg.kernel_basis(basis if basis else [[0] * n]):
            w = tuple(w)
            c = sum(wi * bi for wi, bi in zip(w, base))
            system.append((w, c))
            system.append((tuple(-x for x in w), -c))
    if k == 0:
        return HullData(dim=0, vertices=(base,), system=tuple(system))

    # coordinates of each point in the difference lattice (always integral)
    bt = intlinalg.transpose(basis)  # n x k
    proj = []
    for p in pts:
        rhs = [p[i] - base[i] for i in range(n)]
        u = intlinalg.solve_rational(bt, rhs)
        proj.append(tuple(int(x) for x in u))

    facets, proj_vertices = _full_dim_hull(proj, k)

    # pull facet inequalities back to the ambient space:
    # u = L (m - base) with L a rational left inverse of bt
    gram = intlinalg.mat_mul(basis, bt)  # k x k, invertible
    vert_set = set(proj_vertices)
    vertices = sorted(
        tuple(base[i] + sum(bt[i][j] * u[j] for j in range(k)) for i in range(n))
        for u in vert_set
    )
    for a, c in facets:
        y = intlinalg.solve_rational(gram, list(a))  # gram y = a
        arow = [
            sum(Fraction(basis[j][i]) * y[j] for j in range(k)) for i in range(n)
        ]  # L^T a
        cfull = Fraction(c) + sum(ai * bi for ai, bi in zip(arow, base))
        ints = _int_clear(list(arow) + [cfull])
        system.append((tuple(ints[:-1]), ints[-1]))
    return HullData(dim=k, vertices=tuple(vertices), system=tuple(sorted(set(system))))


def vertices_of_inequalities(normals, rhs):
    """Vertices of ``{m : <normals[i], m> >= rhs[i]}`` by basis enumeration.

    ``rhs`` entries may be Fractions.  Returns exact rational vertex tuples;
    an empty list means the polyhedron has no vertex (for pointed systems,
    that it is empty).
    """
    m = len(normals)
    n = len(normals[0]) if m else 0
    vertices = set()
    for subset in combinations(range(m), n):
        a = [normals[i] for i in subset]
        b = [rhs[i] for i in subset]
        if intlinalg.rank_rational(a) != n:
            continue
        x = intlinalg.solve_rational(a, b)
        if x is None:
            continue
        if all(
            sum(Fraction(normals[i][j]) * x[j] for j in range(n)) >= rhs[i]
            for i in range(m)
        ):
            vertices.add(tuple(x))
    return sorted(vertices)
