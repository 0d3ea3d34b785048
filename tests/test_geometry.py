"""Exact hulls up to rank 6, against simplex-membership and exhaustive
hyperplane-enumeration oracles, and extreme rays and section-polytope
vertices against basis enumeration over the rationals."""

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgforge import geometry, intlinalg, load_catalog, wpp_fan_polytope
from lgforge.degeneration import DegenerationError, DivisorOnFan
from lgforge.geometry import _primitive, convex_hull, extreme_rays
from lgforge.toric import FanData
from test_intlinalg import rank_rational_oracle, solve_rational_oracle


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
    sol = solve_rational_oracle(a, b)
    return sol is not None and all(c >= 0 for c in sol)


def is_vertex_oracle(p, points):
    """p is extreme iff it lies in no simplex spanned by other points."""
    others = [q for q in points if q != p]
    n = len(p)
    for size in range(1, n + 2):
        for simplex in combinations(others, size):
            rows = [[q[i] - simplex[0][i] for i in range(n)] for q in simplex[1:]]
            # affine independence keeps barycentric coordinates unique
            if simplex[1:] and rank_rational_oracle(rows) != len(rows):
                continue
            if in_simplex(p, list(simplex)):
                return False
    return True


def _snf_hyperplane_through(points, dim):
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


def exhaustive_hull_oracle(points, dim):
    """Facets and vertices of a full-dimensional configuration (dim >= 1).

    Every subset of ``dim`` points spans a candidate hyperplane (through a
    Smith normal form), and the supporting ones are the facets; a point is a
    vertex when its tight normals have full rank.
    """
    facets = set()
    if dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        facets.add(((1,), lo))
        facets.add(((-1,), -hi))
    else:
        for subset in combinations(points, dim):
            hp = _snf_hyperplane_through(list(subset), dim)
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
        if tight and rank_rational_oracle(tight) == dim:
            vertices.append(p)
    return sorted(facets), vertices


def hull_by_enumeration(points):
    """``convex_hull`` with its full-dimensional step done by the oracle."""
    with mock.patch.object(geometry, "_full_dim_hull", exhaustive_hull_oracle):
        return convex_hull(points)


@st.composite
def hull_inputs(draw):
    """Points of rank 1-4: boxes, many points on one facet, collinear runs
    and single points or pairs, sometimes embedded in a higher-dimensional
    lattice by an integer affine map."""
    rank = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    point = st.tuples(*[coord] * rank)
    shape = draw(st.sampled_from(("box", "facet", "line", "tiny")))
    most = 2 if shape == "tiny" else (6, 12, 10, 8)[rank - 1]
    size = draw(st.integers(1 if shape == "tiny" else rank + 1, most))
    points = draw(st.lists(point, min_size=size, max_size=size))
    if shape == "facet":
        w = draw(point.filter(any))
        c = min(sum(a * b for a, b in zip(w, p)) for p in points)
        plane = [
            p for p in product(range(-3, 4), repeat=rank)
            if sum(a * b for a, b in zip(w, p)) == c
        ]
        points += draw(st.lists(st.sampled_from(plane), max_size=8))
    elif shape == "line":
        start, step = draw(point), draw(point)
        points += [
            tuple(a + j * b for a, b in zip(start, step))
            for j in range(draw(st.integers(2, 6)))
        ]
    extra = draw(st.integers(0, 2))
    if extra:
        rows = draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
            min_size=rank + extra, max_size=rank + extra,
        ))
        shift = draw(st.lists(st.integers(-3, 3), min_size=rank + extra, max_size=rank + extra))
        points = [
            tuple(o + sum(a * b for a, b in zip(row, p)) for row, o in zip(rows, shift))
            for p in points
        ]
    return points


@settings(deadline=None, max_examples=200)
@given(hull_inputs())
def test_hull_matches_exhaustive_oracle(points):
    assert convex_hull(points) == hull_by_enumeration(points)


@st.composite
def high_rank_hull_inputs(draw):
    """4 to 10 points of rank 5 or 6, often fewer than a simplex needs,
    and sometimes many on the facet where the last coordinate is -2."""
    rank = draw(st.integers(5, 6))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=4, max_size=10))
    if draw(st.booleans()):
        points[: len(points) // 2 + 1] = [p[:-1] + (-2,) for p in points[: len(points) // 2 + 1]]
    return points


@settings(deadline=None, max_examples=100)
@given(high_rank_hull_inputs())
def test_hull_matches_exhaustive_oracle_in_rank_5_and_6(points):
    assert convex_hull(points) == hull_by_enumeration(points)


@settings(deadline=None, max_examples=200)
@given(hull_inputs())
def test_hull_system_is_primitive_and_facet_defining(points):
    """Each pulled-back inequality is primitive, valid, and tight on points
    spanning at least a facet, also when the points span a sublattice."""
    hull = convex_hull(points)
    for a, c in hull.system:
        assert gcd(*a) == 1
        values = [sum(x * y for x, y in zip(a, p)) for p in points]
        assert min(values) == c
        tight = [p for p, v in zip(points, values) if v == c]
        rows = [[x - y for x, y in zip(p, tight[0])] for p in tight[1:]]
        assert (rank_rational_oracle(rows) if rows else 0) >= hull.dim - 1


def test_hull_vertices_match_oracle_in_3d():
    """Vertices of random sets in ranks 3 and 4 against simplex membership."""
    rng = random.Random(3131)
    for rank, max_points in ((3, 8), (4, 9)):
        for _ in range(25):
            points = {
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(2, max_points))
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


def vertices_by_rational_elimination(normals, rhs):
    """Basis enumeration with each subsystem solved over the rationals."""
    m = len(normals)
    n = len(normals[0]) if m else 0
    vertices = set()
    for subset in combinations(range(m), n):
        a = [normals[i] for i in subset]
        if rank_rational_oracle(a) != n:
            continue
        x = solve_rational_oracle(a, [rhs[i] for i in subset])
        if all(sum(Fraction(normals[i][j]) * x[j] for j in range(n)) >= rhs[i] for i in range(m)):
            vertices.add(tuple(x))
    return sorted(vertices)


@st.composite
def spanning_normals(draw):
    """Spanning integer normals of rank 1-6: random ones, or the unit vectors
    and a few more, whose cone lies in the positive orthant and is pointed."""
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    normals = draw(st.lists(vector, max_size=2))
    if draw(st.booleans()):
        normals += [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        normals += draw(st.lists(vector, min_size=n, max_size=n))
    assume(rank_rational_oracle([list(a) for a in normals]) == n)
    return normals


@settings(deadline=None, max_examples=100)
@given(spanning_normals())
def test_extreme_rays_match_rational_elimination(normals):
    """The rays, on the slice where the normals sum to 1, are the vertices of
    the cone's inequalities plus that slice equation."""
    rays = extreme_rays(normals)
    assert rays == sorted(rays) and all(gcd(*ray) == 1 for ray in rays)
    total = [sum(col) for col in zip(*normals)]
    oracle = vertices_by_rational_elimination(
        normals + [total, [-x for x in total]], [0] * len(normals) + [1, -1]
    )
    assert sorted(
        tuple(Fraction(x, sum(a * b for a, b in zip(total, ray))) for x in ray) for ray in rays
    ) == oracle


def test_extreme_rays_need_spanning_normals():
    """Normals that do not span leave a line in the cone, which has no rays."""
    for normals in ([(1, 0, 0), (0, 1, 0)], [(1, 0), (-1, 0)], [(0, 0)]):
        with pytest.raises(ValueError, match="do not span"):
            extreme_rays(normals)


def test_section_polytope_vertices_unit_square():
    divisor = DivisorOnFan(FanData(2, ((1, 0), (-1, 0), (0, 1), (0, -1))), (0, 1, 0, 1))
    assert divisor.section_polytope_vertices == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_section_polytope_empty_is_not_effective():
    fan = FanData(1, ((1,), (-1,)))
    with pytest.raises(DegenerationError) as err:
        DivisorOnFan(fan, (-1, -1))  # x >= 1 and -x >= 1
    assert str(err.value) == "section polytope is empty: the divisor is not effective"


@st.composite
def divisors_on_complete_fans(draw):
    """Divisors on complete fans of rank 1-4, the rays +-e_i and up to three
    more: random rational coefficients, zero, or the support function of
    points flattened in one coordinate, whose section polytope is
    lower-dimensional (nef but not big when no ray was added)."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    rays = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    rays += draw(st.lists(vector.filter(lambda v: gcd(*v) == 1), max_size=3))
    rays = list(dict.fromkeys(rays))
    shape = draw(st.sampled_from(("random", "zero", "flat")))
    if shape == "random":
        coefficient = st.fractions(min_value=-1, max_value=3, max_denominator=3)
        d = draw(st.lists(coefficient, min_size=len(rays), max_size=len(rays)))
    elif shape == "zero":
        d = [0] * len(rays)
    else:
        j = draw(st.integers(0, n - 1))
        points = [p[:j] + (0,) + p[j + 1:] for p in draw(st.lists(vector, min_size=1, max_size=4))]
        d = [-min(sum(a * b for a, b in zip(v, p)) for p in points) for v in rays]
    return FanData(n, tuple(rays)), d


@settings(deadline=None, max_examples=100)
@given(divisors_on_complete_fans())
def test_section_polytope_vertices_match_rational_elimination(divisor):
    fan, d = divisor
    oracle = vertices_by_rational_elimination(fan.rays, [-Fraction(x) for x in d])
    if not oracle:
        with pytest.raises(DegenerationError, match="not effective"):
            DivisorOnFan(fan, tuple(d))
    else:
        assert DivisorOnFan(fan, tuple(d)).section_polytope_vertices == oracle


# weights of the weighted projective planes in the benchmark's cli mix
WPP_WEIGHTS = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 4), (2, 3, 5), (1, 4, 25))


def pinned_hulls() -> str:
    """``(dim, vertices, system)`` of every catalog support and fan, the wpp
    fan polytopes and 40 seeded random sets, one hull per line of JSON."""
    inputs = {}
    for entry in load_catalog():
        models = (("model", entry.parse_model), ("param_model", entry.parse_param_model))
        for label, f in models:
            if f is not None:
                inputs[f"{entry.id} {label}"] = list(f.terms)
        for index, check in enumerate(entry.checks):
            if "rays" in check.payload:
                inputs[f"{entry.id} {check.kind} {index}"] = check.payload["rays"]
    for weights in WPP_WEIGHTS:
        inputs[f"wpp {weights}"] = wpp_fan_polytope(*weights).vertices
    rng = random.Random(4040)
    for i in range(40):
        rank, box = 2 + i % 3, rng.randint(1, 3)
        inputs[f"random {i}"] = [
            tuple(rng.randint(-box, box) for _ in range(rank))
            for _ in range(rng.randint(8, 24))
        ]
    lines = []
    for label, points in inputs.items():
        hull = convex_hull(points)
        lines.append(f" {json.dumps(label)}: {json.dumps([hull.dim, hull.vertices, hull.system])}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_hulls_are_pinned():
    """Hulls of the catalog inputs and of random sets are fixed byte for byte."""
    golden = Path(__file__).parent / "data/hulls.json"
    assert pinned_hulls() == golden.read_text(encoding="utf-8")
