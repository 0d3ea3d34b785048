"""Fibre packing for the period kernel: one lattice direction of f moves
into the coefficients.

A unimodular change of torus coordinates fixes every constant term, so
the kernel may first narrow the support (_reduced).  In that basis the
coordinate t along one direction v becomes a slot index: a key then holds
a whole line of a power as one big integer, Kronecker substitution in one
variable, and a product in the power step multiplies two whole lines.
See fibre_packing for the packing and the proof that it is exact.

period imports this module at the first power step, and only when the
powers are large enough to repay the search (period._fibre_packing), so
a program that forms no large power never loads it.
"""

from __future__ import annotations

from itertools import permutations, product
from math import lcm
from operator import add, sub

from .period import _digit_width


def _integer_columns(flat: dict) -> tuple:
    """The flattened f as digit columns, parameters first, with the integer
    coefficients of D*f for the lcm D of its denominators, and D."""
    den = lcm(*(c.denominator for c in flat.values()))
    ints = [c.numerator * (den // c.denominator) for c in flat.values()]
    return [list(col) for col in zip(*flat)], ints, den


def _pack_columns(cols: list, s: int, count: int) -> list:
    """The keys sum_i u_i*2^(s*i) of the rows u of the digit columns."""
    keys = [0] * count
    for i, col in enumerate(cols):
        keys = [k + (d << (s * i)) for k, d in zip(keys, col)]
    return keys


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
    long, empty fibres.  Ties in the line count go to the narrower pivot.
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
            found.append((len(set(map(sub, keys, map(big_v.__mul__, t)))), first, rest))
    best = None
    for lines, first, rest in sorted(found):
        if 5 * lines > 4 * terms or best is not None and lines > best[0][0]:
            break
        v = (0,) * first + (1,) + rest
        j = min((i for i in range(n) if v[i]), key=width.__getitem__)
        rank = (lines, width[j])
        if lines * (width[j] + 1) <= 4 * terms and (best is None or rank < best[0]):
            best = (rank, j, v)
    return None if best is None else best[1:]


def fibre_packing(flat: dict, r: int, order: int):
    """The flattened f, with r parameters, packed as period._packing does
    but with one lattice line per key and one slot per point of it; None
    when no direction pays (period._fibre_packing decides whether to
    search at all).

    Two steps come first.  (1) The torus
    coordinates go into a width-reduced basis (_reduced); a unimodular
    monomial map preserves every constant term, so c(f^d) is unchanged.
    (2) A direction v is chosen whose lines meet the support fewest
    (_direction); with its pivot v_j = +-1 the fibre coordinate is
    t = v_j*e_j, and e - t*v, whose j-th entry is 0, names the line.  A
    term q*a^p*x^e then becomes the key of u = (p, e - t*v without entry
    j) and adds q*D*2^(S*(t - t_min)) to that key's coefficient, the
    sign of t chosen so that t_min <= 0.  (key, t) is a linear bijection
    of the exponents, so a pairing matches keys k and -k and t values
    summing to 0.

    The packed coefficient of a key in (D*f)^k is
    sum_t c_t*2^(S*(t - k*t_min)), a fibre of k*(t_max - t_min) + 1
    slots, and a product of fibres of (D*f)^a and (D*f)^b holds in slot
    t - d*t_min, d = a + b, the sum of the products whose t values add to
    t.  Every coefficient of (D*f)^d, and every partial sum of a pairing,
    is at most N^d in size, for N the sum of |coefficients| of D*f, so
    S = bitlen(N^order) + 1 makes every slot of every power and pairing
    a balanced S-bit digit: a packed value is 0 exactly when every slot
    is, and the t = 0 slot m0 = -d*t_min reads off exactly (period._slot).
    If the support has t_min > 0 or t_max < 0, every c(f^d) with d >= 1
    is 0; with t_min <= 0 arranged, m0 then lies above every slot and
    reads 0.
    """
    cols, ints, den = _integer_columns(flat)
    if len(cols) == r:
        return None
    cols[r:], width = _reduced(cols[r:])
    direction = _direction(cols, r, width)
    if direction is None:
        return None
    j, v = direction
    t = cols[r + j] if v[j] == 1 else [-x for x in cols[r + j]]
    del cols[r + j]
    cols[r:] = [
        [e - vi * ti for e, ti in zip(col, t)] if vi else col
        for col, vi in zip(cols[r:], v[:j] + v[j + 1:])
    ]
    if min(t) > 0:
        t = [-x for x in t]
    s = _digit_width(max((max(map(abs, col)) for col in cols), default=0), order)
    low = -min(t)
    big_s = (sum(map(abs, ints)) ** order).bit_length() + 1
    packed: dict = {}
    for k, c, ti in zip(_pack_columns(cols, s, len(ints)), ints, t):
        packed[k] = packed.get(k, 0) + (c << (big_s * (ti + low)))
    return packed, den, s, big_s, low
