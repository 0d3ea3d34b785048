"""Exact linear algebra on small integer matrices.

Matrices are lists of row lists.  All work here is on tiny inputs (at most
a dozen rows), so the code favours clarity and exactness over asymptotics.
Everything stays in the integers: determinants are fraction-free
(Bareiss), lattices are reduced to Smith and Hermite normal forms, and a
rational inverse is never formed.  Where one would be, callers use the
adjugate, ``adj(m) @ m = det(m) I``, and divide exactly: a unimodular
matrix has the integer inverse ``det(m) adj(m)``.
"""

from __future__ import annotations


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m):
    """Return ``(u, d, v)`` with ``u @ m @ v = d`` diagonal, ``u, v`` unimodular."""
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        arow, asrc = a[dst], a[src]
        for j in range(cols):
            arow[j] -= q * asrc[j]
        urow, usrc = u[dst], u[src]
        for j in range(rows):
            urow[j] -= q * usrc[j]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(rows, cols):
        # choose the entry of smallest absolute value as pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        clean = False
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        clean = False
        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1
    return u, a, v


def kernel_basis(m):
    """Basis of the integer kernel ``{k : m @ k = 0}`` (saturated lattice)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [list(e) for e in identity_matrix(cols)]
    _, d, v = smith_normal_form(m)
    basis = []
    for j in range(cols):
        if j >= min(rows, cols) or d[j][j] == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis


def row_hermite_form(m):
    """Row-style Hermite normal form: canonical representative of GL(Z) row orbits.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, zero rows sink to the bottom.
    """
    a = [row[:] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0 and (pivot is None or abs(a[i][c]) < abs(a[pivot][c])):
                pivot = i
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        # clear below the pivot by repeated euclidean steps
        done = False
        while not done:
            done = True
            for i in range(r + 1, rows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c] != 0:
                        a[r], a[i] = a[i], a[r]
                        done = False
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return a


def lattice_basis_of_rows(rows_in):
    """Basis of the lattice generated by the given integer row vectors."""
    h = row_hermite_form([list(r) for r in rows_in])
    return [row for row in h if any(x != 0 for x in row)]


def adjugate(m):
    """Adjugate of a square integer matrix: ``adjugate(m) @ m == det(m) I``."""
    n = len(m)
    return [
        [
            (-1) ** (i + j) * det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
