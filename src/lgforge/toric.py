"""Fans of toric varieties, their class groups, mirror models and
combinatorial quantum-period oracles.

The relation monoid of a fan (nonnegative integer tuples k with
sum k_i v_i = 0) drives two independent computations: the parametrized
ray-sum model whose period is obtained by polynomial powering, and the
closed multinomial formula evaluated directly over the monoid.  Their
agreement is the central cross-check of this module.

The monoid is enumerated in the class lattice: a relation is k = c K for a
saturated basis K of the relations, so the search runs over curve classes
c in Z^r (r = number of rays - rank), as Givental's sum over classes beta
does, and not over ray space Z^l.  Its slices are graded by total degree
for the toric oracle and by the S_0 subtotal for complete intersections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import ceil, factorial, floor, gcd, isqrt, prod

from . import geometry, intlinalg
from .laurent import LaurentError, LaurentPolynomial, NewtonPolytopeData, ParamPoly, _ints
from .period import PeriodSeries


class ToricError(LaurentError):
    pass


class GradingError(ToricError):
    """A grading that is not positive on some nonzero relation."""


@dataclass(frozen=True)
class FanData:
    """The rays of a fan; lgforge computes with the face fan of the rays."""

    rank: int
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.rank) is not int:
            raise ToricError(f"rank {self.rank!r} is not an integer")
        message = "ray {} has a non-integer coordinate"
        rays = tuple(_ints(ray, message, ToricError) for ray in self.rays)
        object.__setattr__(self, "rays", rays)
        seen = set()
        for ray in rays:
            if len(ray) != self.rank:
                raise ToricError(f"ray {ray} does not have rank {self.rank}")
            if gcd(*ray) != 1:
                raise ToricError(f"ray {ray} is not primitive")
            if ray in seen:
                raise ToricError(f"duplicate ray {ray}")
            seen.add(ray)
        if rays and len(intlinalg.lattice_basis_of_rows(rays)) != self.rank:
            raise ToricError("rays do not span the ambient lattice")
        if not rays and self.rank != 0:
            raise ToricError("a fan with no rays must have rank 0")

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @staticmethod
    def from_json(data: dict) -> "FanData":
        """A fan from {"rank": ..., "rays": [...]}; any other key, such as
        "cones", is refused, since the cones are those of the face fan."""
        if not isinstance(data, dict):
            raise ToricError("a fan must be a JSON object with the keys rank and rays")
        extra = sorted(set(data) - {"rank", "rays"})
        if extra:
            raise ToricError(
                f"unknown key {extra[0]!r}: lgforge computes with the face fan of the rays"
            )
        return FanData(rank=data["rank"], rays=data["rays"])

    def to_json(self) -> dict:
        return {"rank": self.rank, "rays": [list(r) for r in self.rays]}


@dataclass(frozen=True)
class ClassGroupData:
    """Free class group of a fan, with a divisor section for parametrizing.

    ``class_map`` row i is the class of the i-th ray divisor in the chosen
    basis.  ``relation_lattice`` is a basis of {k : sum k_i v_i = 0} and
    equals the transpose of the class projection.  ``section`` row i gives
    the parameter exponents attached to ray i; its columns are divisor
    representatives of the basis classes, so applying the class projection
    to the section columns gives the identity matrix.  They are effective
    exactly when ``nonnegative_section`` holds.
    """

    class_rank: int
    class_map: tuple[tuple[int, ...], ...]
    relation_lattice: tuple[tuple[int, ...], ...]
    section: tuple[tuple[int, ...], ...]
    nonnegative_basis: bool
    nonnegative_section: bool


# r-subsets of candidate divisors tried per pass before class_group gives up
_SECTION_BUDGET = 200000
# classes in the box of a relation-monoid slice before relation_monoid gives up
_MONOID_BUDGET = 1000000
# highest series order of the quantum-period oracles: the box bounds the
# classes but not the size of their multinomials, which grow with the order
_ORDER_BUDGET = 1000


def _check_order(order: int):
    if order < 0:
        raise ToricError("order must be nonnegative")
    if order > _ORDER_BUDGET:
        raise ToricError(f"order {order} exceeds the budget {_ORDER_BUDGET}")


def _effective_section(proj, l: int, r: int):
    """Effective divisors whose classes form a basis of Z^r, with the r x r
    matrix of those classes, or None when no divisor of degree <= 3 gives one.

    Candidates are ordered by (degree, lex) and r-subsets lexicographically.
    Single rays are tried first: by Gale duality the classes of r rays are a
    basis exactly when the other rays are a basis of the lattice, so on a
    smooth fan the rays off any maximal cone qualify.  Divisors of degree 2
    and 3 join only when no r rays do.  Each pass tries at most
    ``_SECTION_BUDGET`` subsets and raises ToricError beyond that.
    """
    candidates = [
        vector
        for degree in (1, 2, 3)
        for vector in sorted(
            tuple(idx.count(i) for i in range(l))
            for idx in combinations_with_replacement(range(l), degree)
        )
    ]
    for pool in (candidates[:l], candidates):
        classes = [[sum(p * c for p, c in zip(row, v)) for row in proj] for v in pool]
        for count, subset in enumerate(combinations(range(len(pool)), r)):
            if count == _SECTION_BUDGET:
                raise ToricError(
                    f"no divisor section among the first {_SECTION_BUDGET}"
                    f" choices of {r} candidate divisors"
                )
            t = intlinalg.transpose([classes[i] for i in subset])
            if abs(intlinalg.det(t)) == 1:
                return [pool[i] for i in subset], t
    return None


def _unimodular_inverse(m):
    d = intlinalg.det(m)  # +-1
    return [[d * x for x in row] for row in intlinalg.adjugate(m)]


def class_group(fan: FanData) -> ClassGroupData:
    """Cokernel presentation of the ray matrix, deterministic in ray order.

    The basis of the class group is chosen as the classes of an effective
    divisor section (when one exists), so that the pair model's parameter
    exponents are nonnegative; whether the ray classes themselves come out
    nonnegative is reported but not forced.
    """
    l, n = fan.n_rays, fan.rank
    a = [list(ray) for ray in fan.rays]  # l x n, rows are rays
    u, d, _ = intlinalg.smith_normal_form(a)
    diag = [d[i][i] for i in range(min(l, n))]
    if any(abs(x) not in (0, 1) for x in diag):
        raise ToricError("class group has torsion; only free class groups are supported")
    rank = sum(1 for x in diag if x != 0)
    if rank != n:
        raise ToricError("rays do not span; class group not defined")
    r = l - n
    proj = [u[i] for i in range(n, l)]  # r x l: class projection / relation basis

    found = _effective_section(proj, l, r)
    if found is None:
        # proj is rows n.. of u, so columns n.. of u^-1 are an integral section
        u_inv = _unimodular_inverse(u)
        section_cols = [[row[j] for row in u_inv] for j in range(n, l)]
    else:
        # rewrite the projection in the basis of the section classes
        section_cols, t = found
        proj = intlinalg.mat_mul(_unimodular_inverse(t), proj)

    section_rows = [
        tuple(section_cols[j][i] for j in range(r)) for i in range(l)
    ]
    class_rows = [tuple(proj[i][j] for i in range(r)) for j in range(l)]
    nonneg = all(all(x >= 0 for x in row) for row in class_rows)
    return ClassGroupData(
        class_rank=r,
        class_map=tuple(class_rows),
        relation_lattice=tuple(tuple(row) for row in proj),
        section=tuple(section_rows),
        nonnegative_basis=nonneg,
        nonnegative_section=found is not None,
    )


@dataclass(frozen=True)
class RelationMonoidSlice:
    degree_bound: int
    tuples: tuple[tuple[int, ...], ...]


def relation_monoid(fan: FanData, bound: int, grading=None) -> RelationMonoidSlice:
    """All k in Z_{>=0}^l with sum k_i v_i = 0 and sum grading_i k_i <= bound.

    The grading defaults to all ones.  Each k is c K for the saturated r x l
    relation basis K, with c in Z^r.  The extreme rays of c K >= 0
    (``geometry.extreme_rays``), scaled to degree ``bound``, and 0 span the
    slice: its box bounds c_1..c_{r-1}, and c_r runs over an exact integer
    interval.  A ray of degree <= 0 raises GradingError; a box past
    ``_MONOID_BUDGET`` classes raises ToricError.
    """
    if bound < 0:
        raise ToricError("degree bound must be nonnegative")
    l = fan.n_rays
    grading = [1] * l if grading is None else grading
    basis = intlinalg.kernel_basis(intlinalg.transpose(fan.rays))
    if not basis:
        return RelationMonoidSlice(degree_bound=bound, tuples=((0,) * l,))
    columns = intlinalg.transpose(basis)  # k_i = <columns[i], c>
    degree = intlinalg.mat_vec(basis, grading)
    corners = [[0] * len(basis)]
    # sorted by their points on the slice sum k = 1, which fixes the witness;
    # each columns . ray is a primitive relation, as K is saturated
    for ray in sorted(
        geometry.extreme_rays(columns),
        key=lambda ray: [Fraction(x, sum(intlinalg.mat_vec(columns, ray))) for x in ray],
    ):
        d = sum(x * y for x, y in zip(degree, ray))
        if d <= 0:
            raise GradingError(f"relation {tuple(intlinalg.mat_vec(columns, ray))} has degree {d}")
        corners.append([Fraction(bound * x, d) for x in ray])
    box = [range(ceil(min(xs)), floor(max(xs)) + 1) for xs in zip(*corners)]
    volume = prod(map(len, box))
    if volume > _MONOID_BUDGET:
        raise ToricError(f"monoid box of {volume} classes exceeds the budget {_MONOID_BUDGET}")
    *head, last = basis
    found = []
    for c in product(*box[:-1]):
        partial = [sum(x * row[i] for x, row in zip(c, head)) for i in range(l)]
        # c_r = t needs t * a >= b for each k_i >= 0, then for degree <= bound
        offsets = [-p for p in partial] + [sum(g * p for g, p in zip(grading, partial)) - bound]
        pairs = list(zip(last + [-degree[-1]], offsets))
        if any(a == 0 and b > 0 for a, b in pairs):
            continue
        lo = max([box[-1].start] + [-(-b // a) for a, b in pairs if a > 0])
        hi = min([box[-1].stop - 1] + [b // a for a, b in pairs if a < 0])
        found.extend(tuple(p + t * x for p, x in zip(partial, last)) for t in range(lo, hi + 1))
    return RelationMonoidSlice(degree_bound=bound, tuples=tuple(sorted(found)))


def hori_vafa(fan: FanData) -> LaurentPolynomial:
    """Unit-coefficient ray sum."""
    terms = {ray: 1 for ray in fan.rays}
    return LaurentPolynomial.from_terms(fan.rank, 0, terms)


def toric_pair_model(fan: FanData, cg: ClassGroupData) -> LaurentPolynomial:
    """Parametrized ray sum: ray i carries the parameter monomial of its
    section row.  Substituting every parameter to 1 recovers hori_vafa."""
    if not cg.nonnegative_section:
        raise ToricError(
            "no componentwise-nonnegative divisor section found; pin a basis explicitly"
        )
    r = cg.class_rank
    terms = {}
    for ray, srow in zip(fan.rays, cg.section):
        coeff = ParamPoly.of(r, {tuple(srow): 1}) if r else 1
        terms[ray] = coeff
    return LaurentPolynomial.from_terms(fan.rank, r, terms)


def _multinomial(parts) -> int:
    """(sum of parts)! / (prod of part!)."""
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def toric_quantum_period(fan: FanData, cg: ClassGroupData, order: int) -> PeriodSeries:
    """Regularized quantum period from the relation monoid (no powering).

    Degree-d coefficient: sum over monoid tuples with sum k_i = d of
    d!/(k_1! ... k_l!) times the parameter monomial of the tuple's class.
    """
    _check_order(order)
    slice_ = relation_monoid(fan, order)
    return _class_series(
        fan, cg, order, ((sum(k), k, _multinomial(k)) for k in slice_.tuples)
    )


def _class_series(fan: FanData, cg: ClassGroupData, order: int, terms) -> PeriodSeries:
    """Regularized series from (degree, monoid tuple, weight) triples: each
    adds weight times the parameter monomial of the tuple's class at its
    degree.  With no parameters the coefficients are scalars."""
    r = cg.class_rank
    coeffs = [dict() for _ in range(order + 1)]
    for d, k, weight in terms:
        cls = tuple(
            sum(k[i] * cg.section[i][j] for i in range(fan.n_rays)) for j in range(r)
        )
        coeffs[d][cls] = coeffs[d].get(cls, 0) + weight
    return PeriodSeries(tuple(ParamPoly.of(r, c) for c in coeffs))


@dataclass(frozen=True)
class NefPartition:
    """Blocks S_0, S_1, ..., S_s of ray indices; S_0 is the ample block."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        message = "block {} does not hold ray indices"
        blocks = tuple(tuple(sorted(_ints(b, message, ToricError))) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        flat = [i for b in blocks for i in b]
        if len(flat) != len(set(flat)):
            raise ToricError("nef partition blocks must be disjoint")

    def validate(self, n_rays: int):
        flat = sorted(i for b in self.blocks for i in b)
        if flat != list(range(n_rays)):
            raise ToricError("nef partition must cover all rays exactly once")
        if not self.blocks or not self.blocks[0]:
            raise ToricError("nef partition needs a nonempty ample block S_0")
        if len(self.blocks) < 2:
            raise ToricError("nef partition needs at least one hypersurface block")


def ci_quantum_period(
    fan: FanData, cg: ClassGroupData, partition: NefPartition, order: int
) -> PeriodSeries:
    """Complete-intersection quantum period from the nef partition.

    Degree-d coefficient: sum over monoid tuples with the S_0 subtotal
    equal to d of (prod over blocks of (block subtotal)!) / (prod k_i!),
    times the parameter monomial of the tuple's class.
    """
    _check_order(order)
    partition.validate(fan.n_rays)
    s0 = partition.blocks[0]
    try:
        slice_ = relation_monoid(fan, order, [int(i in s0) for i in range(fan.n_rays)])
    except GradingError as err:
        raise ToricError(f"S_0 block is not ample: {err}") from None
    return _class_series(
        fan,
        cg,
        order,
        ((sum(k[i] for i in s0), k, _ci_weight(k, partition.blocks)) for k in slice_.tuples),
    )


def _ci_weight(k, blocks) -> int:
    """(prod over blocks of (block subtotal)!) / (prod k_i!): the blocks
    partition the rays (NefPartition.validate), so this is the product of
    the blocks' multinomials, an integer.  toric_quantum_period's weight is
    the one-block case."""
    return prod(_multinomial([k[i] for i in block]) for block in blocks)


def fibre_fan(fan: FanData, projection) -> FanData:
    """Sub-fan of rays killed by a surjective projection, rewritten in a
    lattice basis of the projection kernel."""
    message = "projection row {} is not a vector of integers"
    proj = [list(_ints(row, message, ToricError)) for row in projection]
    m = len(proj)
    if m == 0 or any(len(row) != fan.rank for row in proj):
        raise ToricError("projection must be an m x n integer matrix")
    _, d, _ = intlinalg.smith_normal_form(proj)
    diag = [d[i][i] for i in range(min(m, fan.rank))]
    if len([x for x in diag if abs(x) == 1]) != m:
        raise ToricError("projection is not surjective onto Z^m")
    kernel = intlinalg.kernel_basis(proj)  # list of n-vectors
    k = len(kernel)
    # a ray in the kernel is kernel^T x with x = adj(gram) kernel ray / det(gram)
    gram = intlinalg.mat_mul(kernel, intlinalg.transpose(kernel))
    back = intlinalg.mat_mul(intlinalg.adjugate(gram), kernel)
    scale = intlinalg.det(gram)
    new_rays = [
        tuple(x // scale for x in intlinalg.mat_vec(back, ray))
        for ray in fan.rays
        if all(sum(proj[i][j] * ray[j] for j in range(fan.rank)) == 0 for i in range(m))
    ]
    if not new_rays and k > 0:
        raise ToricError("fibre fan is empty: no ray maps to zero")
    return FanData(rank=k, rays=tuple(new_rays))


def wpp_fan_polytope(w0: int, w1: int, w2: int):
    """Fan polytope of a well-formed weighted projective plane.

    Returns primitive vertices v0, v1, v2 of a triangle in Z^2 with
    w0 v0 + w1 v1 + w2 v2 = 0, in the Hermite-normal-form representative
    of its GL(2,Z) orbit.
    """
    weights = _ints((w0, w1, w2), "weights {} are not integers", ToricError)
    if any(w <= 0 for w in weights):
        raise ToricError("weights must be positive")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(weights[i], weights[j]) != 1:
                raise ToricError(
                    f"weights {weights} are not well-formed (gcd of a pair exceeds 1)"
                )
    u, d, _ = intlinalg.smith_normal_form([[w] for w in weights])
    if d[0][0] != 1:
        raise ToricError("weights must have gcd 1")
    # quotient Z^3 / Z<w>: coordinates are rows 1 and 2 of u
    verts = [(u[1][i], u[2][i]) for i in range(3)]
    for i, v in enumerate(verts):
        g = gcd(abs(v[0]), abs(v[1]))
        if g != 1:
            raise ToricError(f"vertex for weight {weights[i]} is not primitive")
    h = intlinalg.row_hermite_form([[verts[0][0], verts[1][0], verts[2][0]],
                                    [verts[0][1], verts[1][1], verts[2][1]]])
    vertices = tuple((h[0][i], h[1][i]) for i in range(3))
    hull = geometry.convex_hull(vertices)
    return NewtonPolytopeData(vertices=vertices, dimension=hull.dim, hull=hull)


@dataclass(frozen=True)
class MarkovTriple:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise ToricError("Markov triples have positive entries")
        if self.a ** 2 + self.b ** 2 + self.c ** 2 != 3 * self.a * self.b * self.c:
            raise ToricError(f"({self.a},{self.b},{self.c}) violates a^2+b^2+c^2=3abc")

    def as_tuple(self):
        return (self.a, self.b, self.c)


def markov_mutate(triple: MarkovTriple, slot: int) -> MarkovTriple:
    """Replace one entry x by 3*(product of the others) - x."""
    vals = list(triple.as_tuple())
    if not 0 <= slot <= 2:
        raise ToricError("slot must be 0, 1 or 2")
    others = [vals[i] for i in range(3) if i != slot]
    vals[slot] = 3 * others[0] * others[1] - vals[slot]
    return MarkovTriple(*vals)


def markov_tree(depth: int) -> set[tuple[int, int, int]]:
    """All triples reachable from (1,1,1) by at most ``depth`` mutations."""
    start = MarkovTriple(1, 1, 1)
    seen = {start.as_tuple()}
    frontier = [start]
    for _ in range(depth):
        new_frontier = []
        for t in frontier:
            for slot in range(3):
                nxt = markov_mutate(t, slot)
                if nxt.as_tuple() not in seen:
                    seen.add(nxt.as_tuple())
                    new_frontier.append(nxt)
        frontier = new_frontier
    return seen


def markov_solutions_up_to(max_entry: int) -> set[tuple[int, int, int]]:
    """Brute-force solutions of a^2+b^2+c^2=3abc with all entries <= max_entry,
    as unordered triples (sorted tuples); independent of the mutation tree."""
    out = set()
    for a in range(1, max_entry + 1):
        for b in range(a, max_entry + 1):
            # c^2 - 3ab c + a^2 + b^2 = 0
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for c2 in (3 * a * b - root, 3 * a * b + root):
                if c2 % 2 == 0:
                    c = c2 // 2
                    if b <= c <= max_entry:
                        out.add((a, b, c))
    return out
