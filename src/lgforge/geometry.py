"""Exact convex geometry of lattice point sets and rational cones.

A configuration is first written in coordinates of its affine lattice, where
it is full-dimensional.  There the hull is built by beneath-beyond: start
from a simplex of the points and insert the others one at a time.  A point
beyond some facets replaces them by the hyperplanes through it and the
horizon ridges, found combinatorially as pairs of a visible and a hidden
facet whose shared tight points span a ridge.  Normals are integer
generalized cross products, so everything stays exact, and the work grows
with the facets met rather than with the k-subsets of the points.

By polarity, the extreme rays of a pointed cone {x : <a_i, x> >= 0} are the
inner normals of the facets through 0 of the hull of 0 and the a_i.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    g = gcd(*vec)
    if g == 0:
        return None
    return tuple(x // g for x in vec)


def _dot(a, m):
    return sum(x * y for x, y in zip(a, m))


def _affine_basis(points):
    """A maximal affinely independent subset of ``points``, chosen in order.

    Fraction-free elimination on the differences to the first point; each
    kept row is zero in the pivot columns of the rows kept before it.
    """
    if not points:
        return []
    base = points[0]
    basis, rows = [base], []
    for p in points[1:]:
        v = [x - b for x, b in zip(p, base)]
        for col, row in rows:
            if v[col]:
                f, g = v[col], row[col]
                v = [g * x - f * y for x, y in zip(v, row)]
        col = next((i for i, x in enumerate(v) if x), None)
        if col is not None:
            rows.append((col, v))
            basis.append(p)
    return basis


def _hyperplane_through(points):
    """Primitive ``(a, c)`` with ``<a, m> = c`` through k affinely independent
    points of Z^k: entry i of ``a`` is (-1)^i times the minor of the
    difference rows that omits column i."""
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    a = _primitive([
        (-1) ** i * intlinalg.det([row[:i] + row[i + 1:] for row in rows])
        for i in range(len(base))
    ])
    return a, _dot(a, base)


def _full_dim_hull(points, dim):
    """Facets and vertices of a full-dimensional configuration (dim >= 1),
    inserting the points in order into the hull of a first simplex."""
    simplex = _affine_basis(points)
    inner = [sum(col) for col in zip(*simplex)]  # (dim + 1) times an interior point

    def facet(through):
        a, c = _hyperplane_through(through)
        if _dot(a, inner) < (dim + 1) * c:
            return tuple(-x for x in a), -c
        return a, c

    # facet (a, c) -> indices of the points on it that were outside the hull
    # when inserted; these include every vertex, so they span every face.  A
    # point inserted into the hull is never a vertex and is not recorded.
    facets = {}
    for p in simplex:
        rest = [q for q in simplex if q != p]
        facets[facet(rest)] = {points.index(q) for q in rest}
    for i, p in enumerate(points):
        visible = {key for key in facets if _dot(key[0], p) < key[1]}
        hidden = facets.keys() - visible
        new = {}
        for v in visible:
            for h in hidden:
                shared = facets[v] & facets[h]
                if len(shared) < dim - 1:
                    continue
                ridge = _affine_basis([points[j] for j in shared])
                if len(ridge) == dim - 1:
                    # keyed by its primitive (a, c), a new facet in the plane
                    # of a hidden one merges with it below, which is how a
                    # hidden facet gains p
                    new.setdefault(facet(ridge + [p]), {i}).update(shared)
        for v in visible:
            del facets[v]
        for key, tight in new.items():
            facets.setdefault(key, set()).update(tight)

    # the facets through a recorded point meet in its smallest face, whose
    # recorded points include its vertices: the point is a vertex exactly
    # when it is the only one
    vertices = [
        points[i]
        for i in set().union(*facets.values())
        if set.intersection(*(t for t in facets.values() if i in t)) == {i}
    ]
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

    # coordinates of each point in the echelon basis, by exact substitution:
    # only row j is nonzero in its pivot column among rows j, j+1, ...
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    proj = []
    for p in pts:
        v = [x - b for x, b in zip(p, base)]
        u = []
        for row, col in zip(basis, pivots):
            q = v[col] // row[col]
            v = [x - q * y for x, y in zip(v, row)]
            u.append(q)
        proj.append(tuple(u))

    facets, proj_vertices = _full_dim_hull(proj, k)

    vertices = sorted(
        tuple(b + sum(uj * row[i] for uj, row in zip(u, basis)) for i, b in enumerate(base))
        for u in set(proj_vertices)
    )
    # pull each facet back to the ambient space: u = gram^-1 basis (m - base),
    # so <a, u> >= c reads <basis^T adj(gram) a, m - base> >= det(gram) c,
    # with det(gram) > 0 for the Gram matrix of independent rows
    gram = intlinalg.mat_mul(basis, intlinalg.transpose(basis))
    back = intlinalg.mat_mul(intlinalg.adjugate(gram), basis)  # k x n
    scale = intlinalg.det(gram)
    for a, c in facets:
        normal = [sum(aj * row[i] for aj, row in zip(a, back)) for i in range(n)]
        g = gcd(*normal)
        system.append((tuple(x // g for x in normal), (scale * c + _dot(normal, base)) // g))
    return HullData(dim=k, vertices=tuple(vertices), system=tuple(sorted(set(system))))


def extreme_rays(normals):
    """Sorted primitive extreme rays of the cone {x : <a, x> >= 0 for a in
    ``normals``}: the normals of the facets ``(a, 0)`` of conv({0} u normals).
    Normals that do not span leave a line in the cone and raise ValueError.
    """
    n = len(normals[0]) if normals else 0
    hull = convex_hull([(0,) * n, *normals])
    if hull.dim < n:
        raise ValueError("the normals do not span; the cone is not pointed")
    return sorted(a for a, c in hull.system if c == 0)
