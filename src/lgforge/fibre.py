"""The fibre basis of the period kernel: the order-free choice of one
lattice direction of f to move into the coefficients.

A unimodular change of torus coordinates fixes every constant term, so
the kernel may first narrow the support (_reduced).  In that basis the
coordinate t along one direction v becomes a slot index: a key then holds
a whole line of a power as one big integer, Kronecker substitution in one
variable, and a product in the power step multiplies two whole lines.
This module only chooses the basis, the direction and t (fibre_basis);
period._packing lays out the keys and slots for an order and proves the
packing exact.

period imports this module at the first power step, and only when the
powers are large enough to repay the search (period._fibre_basis), so a
program that forms no large power never loads it.  The choice reads f
alone, so it is made once per series.
"""

from __future__ import annotations

from itertools import permutations, product
from operator import add, sub

from .period import _pack_columns


def _extent(col: list) -> tuple:
    """Width max - min of a column, and the rows of its max and min."""
    hi, lo = max(col), min(col)
    return hi - lo, col.index(hi), col.index(lo)


def _reduced(torus: list) -> tuple:
    """The torus exponent columns in a width-reduced basis, with their widths.

    Each column is one coordinate form phi_i evaluated on the support.
    phi_i is replaced by phi_i + q*phi_j while that lowers its width,
    max - min over the support.  Between the rows of phi_i's max and min,
    phi_i + q*phi_j changes by w_i + q*(phi_j(hi) - phi_j(lo)), a lower
    bound on its width, so only q of the sign opposite to that difference
    can gain.  The width is convex in q, so q walks away from 0 in steps
    that double while they gain and restart at +-1 after a miss, and a
    wide support takes few steps.  Every step is an elementary, hence
    unimodular, change of basis, and the total width strictly falls, so
    the loop ends.
    """
    extents = list(map(_extent, torus))
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(len(torus)), 2):
            unit = torus[j]
            w, hi, lo = extents[i]
            if unit[hi] == unit[lo]:
                continue
            col, op, step = torus[i], sub if unit[hi] > unit[lo] else add, unit
            while True:
                nxt = list(map(op, col, step))
                nw = max(nxt) - min(nxt)
                if nw < w:
                    col, w, step = nxt, nw, list(map(add, step, step))
                elif step is unit:
                    break
                else:
                    step = unit
            if col is not torus[i]:
                torus[i], extents[i], changed = col, _extent(col), True
    return torus, [e[0] for e in extents]


def _direction(cols: list, r: int, width: list):
    """The fibre direction of the digit columns (parameters first, then r
    onward the reduced torus columns of the given widths): (pivot j, v) for
    the primitive v in {-1, 0, 1}^n whose lines meet the terms the fewest
    times, or None.

    The lines are counted as distinct packed keys K - e_i*V, where K packs
    a term's digits, V packs v, and v_i = 1 is its first nonzero entry.
    A direction must cut the keys to at most 4/5 of the terms: above that,
    parameter keys barely repeat along any line and the packed products
    are mostly empty slots.  The pivot is the narrowest coordinate with
    v_j != 0, and packed f may hold at most 4 slots per term,
    lines*(width_j + 1) <= 4*terms, so a wide support is never spread over
    long, empty fibres.  Of the directions that pass both rules, the one
    with the fewest lines wins, ties going to the narrower pivot, then to
    the least (index of v's first nonzero entry, entries after it).
    """
    n, terms = len(cols) - r, len(cols[0])
    s = (2 * max(max(map(abs, col)) for col in cols)).bit_length() + 1
    keys = _pack_columns(cols, s, terms)
    units = [1 << (s * (r + i)) for i in range(n)]
    found = []
    for first in range(n):
        t = cols[r + first]
        for rest, packed in zip(
            product((0, 1, -1), repeat=n - first - 1),
            product(*[(0, u, -u) for u in units[first + 1:]]),
        ):
            big_v = units[first] + sum(packed)
            lines = len(set(map(sub, keys, map(big_v.__mul__, t))))
            v = (0,) * first + (1,) + rest
            j = min((i for i in range(n) if v[i]), key=width.__getitem__)
            if 5 * lines <= 4 * terms and lines * (width[j] + 1) <= 4 * terms:
                found.append(((lines, width[j], first, rest), j, v))
    best = min(found, default=None)
    return None if best is None else best[1:]


def fibre_basis(cols: list, r: int):
    """The digit columns of f (r parameter columns, then the torus) in its
    fibre basis, and the fibre coordinate t of each term; None when no
    direction pays.  Neither step reads the order.

    (1) The torus coordinates go into a width-reduced basis (_reduced); a
    unimodular monomial map preserves every constant term, so c(f^d) is
    unchanged.  (2) A direction v is chosen whose lines meet the support
    fewest (_direction); with its pivot v_j = +-1 the fibre coordinate is
    t = v_j*e_j, and e - t*v, whose j-th entry is 0, names the line, so
    column j is dropped.  (key, t) is a linear bijection of the exponents.
    The sign of t is chosen so that min(t) <= 0.
    """
    torus, width = _reduced(cols[r:])
    direction = _direction(cols[:r] + torus, r, width)
    if direction is None:
        return None
    j, v = direction
    t = torus[j] if v[j] == 1 else [-x for x in torus[j]]
    lines = [
        [e - vi * ti for e, ti in zip(col, t)] if vi else col
        for col, vi in zip(torus[:j] + torus[j + 1:], v[:j] + v[j + 1:])
    ]
    if min(t) > 0:
        t = [-x for x in t]
    return cols[:r] + lines, t
