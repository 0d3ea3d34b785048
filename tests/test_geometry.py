"""Exact hulls in low dimension, against simplex-membership oracles."""

import random
from fractions import Fraction
from itertools import combinations

from lgforge.geometry import convex_hull, vertices_of_inequalities
from lgforge.intlinalg import solve_rational


def in_simplex(p, simplex):
    """Exact barycentric membership test of p in conv(simplex).

    Only called with affinely independent simplices, where the barycentric
    coordinates are unique.
    """
    k = len(simplex) - 1
    n = len(p)
    a = [[Fraction(simplex[j][i]) for j in range(k + 1)] for i in range(n)]
    a.append([Fraction(1)] * (k + 1))
    b = [Fraction(x) for x in p] + [Fraction(1)]
    sol = solve_rational(a, b)
    return sol is not None and all(c >= 0 for c in sol)


def is_vertex_oracle(p, points):
    """p is extreme iff it lies in no simplex spanned by other points."""
    others = [q for q in points if q != p]
    n = len(p)
    for size in range(1, n + 2):
        for simplex in combinations(others, size):
            rows = [[q[i] - simplex[0][i] for i in range(n)] for q in simplex[1:]]
            # affine independence keeps barycentric coordinates unique
            if simplex[1:]:
                from lgforge.intlinalg import rank_rational

                if rank_rational(rows) != len(rows):
                    continue
            if in_simplex(p, list(simplex)):
                return False
    return True


def test_hull_vertices_match_oracle_in_3d():
    rng = random.Random(3131)
    for _ in range(25):
        points = {
            tuple(rng.randint(-2, 2) for _ in range(3))
            for _ in range(rng.randint(2, 8))
        }
        points = sorted(points)
        hull = convex_hull(points)
        oracle = sorted(p for p in points if is_vertex_oracle(p, points))
        assert sorted(hull.vertices) == oracle, points


def test_hull_system_supports_all_points():
    rng = random.Random(99)
    for _ in range(25):
        points = {
            tuple(rng.randint(-3, 3) for _ in range(3))
            for _ in range(rng.randint(1, 9))
        }
        hull = convex_hull(points)
        for a, c in hull.system:
            values = [sum(ai * pi for ai, pi in zip(a, p)) for p in points]
            assert all(v >= c for v in values)  # valid on the hull
            assert any(v == c for v in values)  # and supporting


def test_vertices_of_inequalities_unit_square():
    normals = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    rhs = [0, -1, 0, -1]
    verts = vertices_of_inequalities(normals, rhs)
    assert sorted(tuple(int(c) for c in v) for v in verts) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]


def test_vertices_of_inequalities_empty():
    normals = [(1,), (-1,)]
    rhs = [1, 1]  # x >= 1 and -x >= 1
    assert vertices_of_inequalities(normals, rhs) == []
