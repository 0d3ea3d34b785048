"""Exact integer linear algebra: unimodularity, normal forms, kernels,
against rational Gaussian elimination as the oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge.intlinalg import (
    adjugate,
    det,
    identity_matrix,
    kernel_basis,
    lattice_basis_of_rows,
    mat_mul,
    mat_vec,
    row_hermite_form,
    smith_normal_form,
)


def solve_rational_oracle(a, b):
    """One exact solution of ``a x = b`` over the rationals, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x


def rank_rational_oracle(a) -> int:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def gauss_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

rect_matrices = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-4, 4), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)


@given(small_matrices)
def test_det_matches_gaussian_elimination(m):
    assert det(m) == gauss_det(m)


@settings(deadline=None)
@given(rect_matrices)
def test_smith_normal_form_is_a_valid_decomposition(m):
    u, d, v = smith_normal_form(m)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == d
    rows, cols = len(m), len(m[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0


@settings(deadline=None)
@given(rect_matrices)
def test_kernel_basis_spans_the_kernel(m):
    basis = kernel_basis(m)
    cols = len(m[0])
    for k in basis:
        assert all(sum(m[i][j] * k[j] for j in range(cols)) == 0 for i in range(len(m)))
    assert len(basis) == cols - rank_rational_oracle(m)
    if basis:
        # saturated: the basis itself has unit elementary divisors
        _, d, _ = smith_normal_form(basis)
        assert all(d[i][i] == 1 for i in range(len(basis)))


@settings(deadline=None)
@given(rect_matrices)
def test_hermite_form_is_a_left_gl_invariant(m):
    h = row_hermite_form(m)
    shears = [
        identity_matrix(len(m)),
    ]
    t = identity_matrix(len(m))
    if len(m) > 1:
        t[0][1] = 3
    again = row_hermite_form(mat_mul(t, m))
    assert again == h


@given(rect_matrices)
def test_lattice_basis_preserves_row_span(m):
    basis = lattice_basis_of_rows(m)
    spanned = basis if basis else [[0] * len(m[0])]
    assert rank_rational_oracle(spanned) == rank_rational_oracle(m)
    # every original row lies in the integer span of the basis
    for row in m:
        if not basis:
            assert all(x == 0 for x in row)
            continue
        sol = solve_rational_oracle([list(col) for col in zip(*basis)], row)
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)


@given(small_matrices, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_adjugate_solves_like_rational_elimination(m, b):
    """adj(m) b / det(m) is the unique solution of m x = b when det(m) != 0;
    otherwise m is singular and adj(m) m vanishes."""
    b = (b * 4)[: len(m)]
    d = det(m)
    adj = adjugate(m)
    n = len(m)
    assert mat_mul(adj, m) == [[d if i == j else 0 for j in range(n)] for i in range(n)]
    if d == 0:
        assert rank_rational_oracle(m) < n
    else:
        assert solve_rational_oracle(m, b) == [Fraction(x, d) for x in mat_vec(adj, b)]
