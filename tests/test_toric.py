"""Fans, class groups, mirror models, quantum-period oracles, Markov triples."""

import random
import re
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgforge import (
    FanData,
    MarkovTriple,
    NefPartition,
    ci_quantum_period,
    class_group,
    fibre_fan,
    hori_vafa,
    intlinalg,
    load_catalog,
    markov_mutate,
    markov_solutions_up_to,
    markov_tree,
    parse,
    period_coefficients,
    relation_monoid,
    toric,
    toric_pair_model,
    toric_quantum_period,
    wpp_fan_polytope,
)
from lgforge.toric import GradingError, RelationMonoidSlice, ToricError
from test_intlinalg import rank_rational_oracle, solve_rational_oracle

P1 = FanData(1, ((1,), (-1,)))
P2 = FanData(2, ((1, 0), (0, 1), (-1, -1)))
P3 = FanData(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
P1xP1 = FanData(2, ((1, 0), (0, 1), (-1, 0), (0, -1)))
P1xP2 = FanData(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)))
BLP_P3 = FanData(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0)))
BL2_P3 = FanData(
    3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0), (0, -1, 0))
)
P4 = FanData(
    4,
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)),
)
# P(2,3,5): no divisor of degree <= 3 has class +-1, so no effective section
P235 = FanData(2, ((1, 0), (1, 5), (-1, -3)))
# P(1,1,1,1,3), the ambient of the sextic threefold V2
P11113 = FanData(
    4,
    ((-1, -1, -1, -3), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
)
# P^2/mu_3: the rays span an index-3 sublattice, so the class group has torsion
TORSION_FAN = FanData(2, ((-1, -1), (2, -1), (-1, 2)))


def section_columns_oracle(proj0, l: int, r: int):
    """Nonnegative integer columns whose classes form a basis of Z^r.

    Candidates are ordered by (degree, lex); a depth-first search with rank
    pruning returns the first unimodular family, so the result is
    deterministic.  Columns are effective divisors; the family is the
    divisor section defining the parameter monomials of a pair model.
    """

    def vectors_of_degree(total):
        def build(prefix, remaining, slots):
            if slots == 1:
                yield prefix + (remaining,)
                return
            for first in range(remaining + 1):
                yield from build(prefix + (first,), remaining - first, slots - 1)

        yield from build((), total, l)

    candidates = []
    for degree in (1, 2, 3):
        candidates.extend(sorted(vectors_of_degree(degree)))
    classes = {
        c: [sum(proj0[i][j] * c[j] for j in range(l)) for i in range(r)]
        for c in candidates
    }
    budget = [200000]

    def dfs(start, chosen, chosen_classes):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if len(chosen) == r:
            if abs(intlinalg.det(intlinalg.transpose(chosen_classes))) == 1:
                return list(chosen)
            return None
        for idx in range(start, len(candidates)):
            cand = candidates[idx]
            cls = classes[cand]
            stack = chosen_classes + [cls]
            if rank_rational_oracle(stack) != len(stack):
                continue
            out = dfs(idx + 1, chosen + [list(cand)], stack)
            if out is not None:
                return out
        return None

    return dfs(0, [], [])


def oracle_section(fan, cg):
    """Section rows from the search oracle, or None when it finds none.
    Unimodularity does not depend on the basis of the class group, so the
    oracle may search in the basis ``class_group`` chose."""
    cols = section_columns_oracle(cg.relation_lattice, fan.n_rays, cg.class_rank)
    if cols is None:
        return None
    return tuple(tuple(col[i] for col in cols) for i in range(fan.n_rays))


# The ray-space search that relation_monoid replaced, kept as its reference.
def relation_monoid_dfs_oracle(fan: FanData, bound: int, s0_indices=None, s0_bound=None) -> RelationMonoidSlice:
    """All k in Z_{>=0}^l with sum k_i v_i = 0 and sum k_i <= bound.

    Depth-first with per-coordinate partial-sum pruning.  When
    ``s0_indices`` is given, ``s0_bound`` additionally caps the subtotal
    over that index set (used by the complete-intersection oracle).
    """
    if bound < 0:
        raise ToricError("degree bound must be nonnegative")
    l, n = fan.n_rays, fan.rank
    rays = fan.rays
    s0 = frozenset(s0_indices) if s0_indices is not None else None
    # suffix coordinate ranges for pruning
    lo = [[0] * n for _ in range(l + 1)]
    hi = [[0] * n for _ in range(l + 1)]
    for i in range(l - 1, -1, -1):
        for c in range(n):
            lo[i][c] = min(lo[i + 1][c], rays[i][c])
            hi[i][c] = max(hi[i + 1][c], rays[i][c])
    found = []
    current = [0] * l

    def dfs(i, total, s0_total, partial):
        if s0 is not None and s0_bound is not None and s0_total > s0_bound:
            return
        budget = bound - total
        for c in range(n):
            if partial[c] + budget * lo[i][c] > 0 or partial[c] + budget * hi[i][c] < 0:
                return
        if i == l:
            if all(x == 0 for x in partial):
                found.append(tuple(current))
            return
        ray = rays[i]
        k = 0
        while total + k <= bound:
            current[i] = k
            dfs(
                i + 1,
                total + k,
                s0_total + (k if s0 is not None and i in s0 else 0),
                [partial[c] + k * ray[c] for c in range(n)],
            )
            k += 1
        current[i] = 0

    dfs(0, 0, 0, [0] * n)
    return RelationMonoidSlice(degree_bound=bound, tuples=tuple(sorted(found)))


def weighted_projective_fan(weights):
    """Fan of P(weights): the images of the unit vectors in Z^(n+1) / Z*weights."""
    u, _, _ = intlinalg.smith_normal_form([[w] for w in weights])
    n = len(weights) - 1
    return FanData(n, tuple(tuple(u[i][j] for i in range(1, n + 1)) for j in range(n + 1)))


def well_formed(weights):
    return all(
        gcd(*(w for j, w in enumerate(weights) if j != i)) == 1 for i in range(len(weights))
    )


def certified_total_per_s0_degree(fan, s0):
    """Smallest lam found with lam*[i in s0] + <y, v_i> >= 1 for every ray and
    some y in {-2, ..., 2}^n, or None.  For a relation k >= 0 it gives
    sum k <= sum k_i (lam*[i in s0] + <y, v_i>) = lam * (S_0 subtotal of k)."""
    best = None
    for y in iproduct(range(-2, 3), repeat=fan.rank):
        dots = [sum(a * b for a, b in zip(y, ray)) for ray in fan.rays]
        if any(d < 1 for i, d in enumerate(dots) if i not in s0):
            continue
        lam = max(1 - d for i, d in enumerate(dots) if i in s0)
        best = lam if best is None else min(best, lam)
    return best


def random_smooth_fan(rng, rank):
    """A smooth complete fan: P^rank or P^1 x P^(rank-1), star-subdivided at
    random faces of maximal cones, moved by a random unimodular map, with
    its rays in random order."""
    if rank > 1 and rng.random() < 0.5:
        first = [1] + [0] * (rank - 1)
        rays = [first, [-x for x in first]]
        rest = [[0] + [int(i == j) for j in range(rank - 1)] for i in range(rank - 1)]
        rays += rest + [[0] + [-1] * (rank - 1)]
        cones = [
            {s} | {2 + j for j in range(rank) if j != skip}
            for s in (0, 1) for skip in range(rank)
        ]
    else:
        rays = [[int(i == j) for j in range(rank)] for i in range(rank)]
        rays.append([-1] * rank)
        cones = [set(range(rank + 1)) - {skip} for skip in range(rank + 1)]
    for _ in range(rng.randint(0, 3)):
        cone = sorted(rng.choice(cones))
        face = set(rng.sample(cone, rng.randint(2, rank)))
        rays.append([sum(rays[i][c] for i in face) for c in range(rank)])
        new = len(rays) - 1
        cones = [c for c in cones if not face <= c] + [
            (c - {f}) | {new} for c in cones if face <= c for f in face
        ]
    g = intlinalg.identity_matrix(rank)
    for _ in range(4 if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        sign = rng.choice((-1, 1))
        g[i] = [x + sign * y for x, y in zip(g[i], g[j])]
    rays = [tuple(intlinalg.mat_vec(g, ray)) for ray in rays]
    rng.shuffle(rays)
    return FanData(rank, tuple(rays))


class TestFanData:
    def test_non_primitive_ray_rejected(self):
        with pytest.raises(ToricError):
            FanData(2, ((2, 0), (0, 1), (-1, -1)))

    def test_duplicate_ray_rejected(self):
        with pytest.raises(ToricError):
            FanData(2, ((1, 0), (1, 0), (0, 1)))

    def test_rays_must_span(self):
        with pytest.raises(ToricError):
            FanData(2, ((1, 0), (-1, 0)))

    @pytest.mark.parametrize(
        "rank, rays, message",
        [
            (2, ((1.5, 0), (0, 1), (-1, -1)), "ray [1.5, 0]"),
            (2, ((1, 0), (0, True), (-1, -1)), "ray [0, True]"),
            (2.0, ((1, 0), (0, 1), (-1, -1)), "rank 2.0"),
        ],
        ids=["float-coordinate", "bool-coordinate", "float-rank"],
    )
    def test_non_integer_values_rejected(self, rank, rays, message):
        with pytest.raises(ToricError, match=re.escape(message)):
            FanData(rank, rays)


class TestClassGroup:
    def test_p2(self):
        cg = class_group(P2)
        assert cg.class_rank == 1
        assert cg.class_map == ((1,), (1,), (1,))
        assert cg.relation_lattice == ((1, 1, 1),)
        # the section puts the single parameter on the last ray
        assert cg.section == ((0,), (0,), (1,))

    def test_p1(self):
        cg = class_group(P1)
        assert cg.class_rank == 1
        assert cg.class_map == ((1,), (1,))

    def test_bl2_p3_rank(self):
        cg = class_group(BL2_P3)
        assert cg.class_rank == 3
        assert cg.nonnegative_basis

    def test_kills_principal_divisors(self):
        for fan in (P2, P3, P1xP1, BL2_P3):
            cg = class_group(fan)
            n = fan.rank
            for m in range(n):
                char = [fan.rays[i][m] for i in range(fan.n_rays)]
                image = [
                    sum(char[i] * cg.class_map[i][j] for i in range(fan.n_rays))
                    for j in range(cg.class_rank)
                ]
                assert all(x == 0 for x in image)

    def test_section_inverts_class_map(self):
        for fan in (P2, P3, P1xP1, BL2_P3, P1xP2, P235):
            cg = class_group(fan)
            r = cg.class_rank
            for j in range(r):
                combo = [
                    sum(cg.section[i][j] * cg.class_map[i][k] for i in range(fan.n_rays))
                    for k in range(r)
                ]
                assert combo == [1 if k == j else 0 for k in range(r)]

    def test_no_effective_section_falls_back_to_an_integral_one(self):
        cg = class_group(P235)
        assert not cg.nonnegative_section
        assert sorted(abs(c) for (c,) in cg.class_map) == [2, 3, 5]
        with pytest.raises(ToricError):
            toric_pair_model(P235, cg)

    def test_section_search_budget_raises(self, monkeypatch):
        monkeypatch.setattr(toric, "_SECTION_BUDGET", 2)
        with pytest.raises(ToricError):
            class_group(P235)

    def test_section_matches_search_oracle_on_catalog_fans(self):
        fans = {
            tuple(tuple(r) for r in check.payload["rays"])
            for entry in load_catalog()
            for check in entry.checks
            if "rays" in check.payload
        }
        assert len(fans) >= 10
        for rays in sorted(fans):
            fan = FanData(len(rays[0]), rays)
            cg = class_group(fan)
            assert cg.nonnegative_section
            assert cg.section == oracle_section(fan, cg), rays

    def test_section_matches_search_oracle_on_random_smooth_fans(self):
        """Where the search oracle picks single rays, class_group picks the
        same ones; on a smooth fan class_group always picks single rays."""
        rng = random.Random(6060)
        compared = 0
        for index in range(60):
            fan = random_smooth_fan(rng, 2 + index % 3)
            cg = class_group(fan)
            assert cg.nonnegative_section
            assert all(sum(col) == 1 for col in zip(*cg.section))
            expected = oracle_section(fan, cg)
            if expected is not None and all(sum(col) == 1 for col in zip(*expected)):
                assert cg.section == expected, fan.rays
                compared += 1
        assert compared >= 40

    def test_single_rays_come_before_mixed_degrees(self):
        """On this non-smooth ray set the search oracle's lex-first section
        takes the divisor D_0 + D_1, although three single rays also give a
        basis; class_group takes the rays."""
        fan = FanData(2, ((-3, -2), (-2, -3), (-2, 3), (-1, -2), (1, 1)))
        cg = class_group(fan)
        assert cg.section == ((0, 0, 1), (0, 0, 0), (0, 1, 0), (0, 0, 0), (1, 0, 0))
        assert oracle_section(fan, cg) == (
            (0, 0, 1), (0, 0, 1), (0, 0, 0), (0, 1, 0), (1, 0, 0)
        )

    def test_surjective(self):
        from lgforge.intlinalg import smith_normal_form

        for fan in (P2, BL2_P3, P1xP2):
            cg = class_group(fan)
            if cg.class_rank == 0:
                continue
            _, d, _ = smith_normal_form([list(r) for r in cg.relation_lattice])
            assert all(abs(d[i][i]) == 1 for i in range(cg.class_rank))


SMOOTH_FANS = st.builds(
    lambda seed, rank: random_smooth_fan(random.Random(seed), rank),
    st.integers(0, 2 ** 32),
    st.integers(2, 4),
)
WEIGHTS = st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(well_formed)


class TestRelationMonoid:
    def test_p2_degree_six(self):
        slice_ = relation_monoid(P2, 6)
        assert set(slice_.tuples) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}

    def test_p1xp1_degree_two(self):
        slice_ = relation_monoid(P1xP1, 2)
        assert set(slice_.tuples) == {(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)}

    def test_degree_zero(self):
        assert relation_monoid(P2, 0).tuples == ((0, 0, 0),)

    def test_closed_under_addition_within_bound(self):
        slice_ = relation_monoid(BL2_P3, 6)
        tuples = set(slice_.tuples)
        for a in tuples:
            for b in tuples:
                total = tuple(x + y for x, y in zip(a, b))
                if sum(total) <= 6:
                    assert total in tuples

    def test_matches_naive_product_enumeration(self):
        from itertools import product as iproduct

        for fan, bound in ((P2, 7), (P1xP1, 5), (BLP_P3, 5)):
            naive = {
                k
                for k in iproduct(range(bound + 1), repeat=fan.n_rays)
                if sum(k) <= bound
                and all(
                    sum(k[i] * fan.rays[i][c] for i in range(fan.n_rays)) == 0
                    for c in range(fan.rank)
                )
            }
            assert set(relation_monoid(fan, bound).tuples) == naive

    @settings(deadline=None, max_examples=80)
    @given(st.one_of(SMOOTH_FANS, WEIGHTS.map(weighted_projective_fan), st.just(TORSION_FAN)),
           st.integers(0, 6))
    def test_matches_dfs_oracle(self, fan, bound):
        assert relation_monoid(fan, bound) == relation_monoid_dfs_oracle(fan, bound)

    @settings(deadline=None, max_examples=80)
    @given(
        st.one_of(WEIGHTS.map(lambda w: (weighted_projective_fan(w), w)),
                  st.just((TORSION_FAN, (1, 1, 1)))),
        st.data(),
    )
    def test_s0_grading_matches_dfs_oracle(self, fan_and_weights, data):
        """Every relation of these fans is t*w with t >= 0, so an S_0
        subtotal of at most ``order`` caps the total at order * sum(w)."""
        fan, weights = fan_and_weights
        s0 = data.draw(st.sets(st.integers(0, fan.n_rays - 1), min_size=1))
        order = data.draw(st.integers(0, 4))
        grading = [int(i in s0) for i in range(fan.n_rays)]
        oracle = relation_monoid_dfs_oracle(fan, order * sum(weights), s0, order)
        assert relation_monoid(fan, order, grading).tuples == oracle.tuples

    @settings(deadline=None, max_examples=80)
    @given(SMOOTH_FANS, st.data())
    def test_s0_grading_on_smooth_fans_matches_dfs_oracle(self, fan, data):
        s0 = data.draw(st.sets(st.integers(0, fan.n_rays - 1), min_size=1))
        order = data.draw(st.integers(0, 4))
        lam = certified_total_per_s0_degree(fan, s0)
        assume(lam is not None)
        grading = [int(i in s0) for i in range(fan.n_rays)]
        oracle = relation_monoid_dfs_oracle(fan, lam * order, s0, order)
        assert relation_monoid(fan, order, grading).tuples == oracle.tuples

    def test_grading_zero_on_a_relation_raises(self):
        with pytest.raises(GradingError, match=r"relation \(0, 1, 0, 1\) has degree 0"):
            relation_monoid(P1xP1, 3, [1, 0, 1, 0])

    def test_box_past_the_budget_raises_before_enumerating(self):
        with pytest.raises(ToricError, match="exceeds the budget"):
            relation_monoid(P2, 10 ** 8)


class TestModels:
    def test_hori_vafa(self):
        assert hori_vafa(P2) == parse("x+y+1/(x*y)", 2)
        assert hori_vafa(P3) == parse("x+y+z+1/(x*y*z)", 3)
        assert hori_vafa(P1xP1) == parse("x+y+1/x+1/y", 2)

    def test_pair_model_p2(self):
        model = toric_pair_model(P2, class_group(P2))
        assert model == parse("x + y + a1/(x*y)", 2, 1)

    def test_pair_model_p1(self):
        assert toric_pair_model(P1, class_group(P1)) == parse("x + a1/x", 1, 1)

    def test_pair_model_blp_p3_support(self):
        model = toric_pair_model(BLP_P3, class_group(BLP_P3))
        ones = model.substitute_parameters({0: 1, 1: 1})
        assert ones == parse("x + y + z + 1/x + 1/(x*y*z)", 3)

    def test_pair_model_specializes_to_hori_vafa(self):
        for fan in (P1, P2, P3, P1xP1, P1xP2, BLP_P3, BL2_P3):
            cg = class_group(fan)
            model = toric_pair_model(fan, cg)
            ones = {i: Fraction(1) for i in range(cg.class_rank)}
            assert model.substitute_parameters(ones) == hori_vafa(fan)


class TestQuantumPeriodOracle:
    def test_p2_values(self):
        series = toric_quantum_period(P2, class_group(P2), 6)
        rendered = series.render_list()
        assert rendered[3] == "6*a1"
        assert rendered[6] == "90*a1^2"

    def test_p3_value(self):
        series = toric_quantum_period(P3, class_group(P3), 4)
        assert series.render_list()[4] == "24*a1"

    def test_order_zero(self):
        series = toric_quantum_period(P2, class_group(P2), 0)
        assert list(series.coefficients) == [1]

    def test_order_past_the_budget_raises_before_enumerating(self):
        cg = class_group(P4)
        with pytest.raises(ToricError, match="order 1001 exceeds the budget 1000"):
            toric_quantum_period(P4, cg, 1001)
        with pytest.raises(ToricError, match="order 30000 exceeds the budget 1000"):
            ci_quantum_period(P4, cg, NefPartition(((3, 4), (0, 1, 2))), 30000)

    def test_oracle_matches_powering_to_order_eight(self):
        for fan in (P1, P2, P3, P1xP1, P1xP2, BLP_P3):
            cg = class_group(fan)
            model = toric_pair_model(fan, cg)
            direct = period_coefficients(model, 8)
            combinatorial = toric_quantum_period(fan, cg, 8)
            assert direct.coefficients == combinatorial.coefficients, fan


class TestCompleteIntersection:
    def test_cubic_threefold_series(self):
        cg = class_group(P4)
        part = NefPartition(((3, 4), (0, 1, 2)))
        series = ci_quantum_period(P4, cg, part, 4)
        at_one = [
            c if isinstance(c, int) else c.substitute({0: Fraction(1)}, 0, {})
            for c in series.coefficients
        ]
        # (2k)!(3k)!/(k!)^5 at k = 0, 1, 2
        assert at_one == [1, 0, 12, 0, 540]

    def test_cubic_matches_direct_model_up_to_shift(self):
        cg = class_group(P4)
        part = NefPartition(((3, 4), (0, 1, 2)))
        series = ci_quantum_period(P4, cg, part, 8)
        at_one = [
            c if isinstance(c, int) else c.substitute({0: Fraction(1)}, 0, {})
            for c in series.coefficients
        ]
        model = parse("(x+y+1)^3/(x*y*z) + z", 3)
        direct = period_coefficients(model, 8)
        # both regularized; equality up to the constant-shift relation
        from math import factorial

        shift = Fraction(at_one[1]) - Fraction(direct.coefficients[1])
        acc = []
        for d in range(9):
            lhs = Fraction(at_one[d], factorial(d))
            rhs = sum(
                shift ** k / factorial(k) * Fraction(direct.coefficients[d - k], factorial(d - k))
                for k in range(d + 1)
            )
            acc.append(lhs == rhs)
        assert all(acc)

    def test_weighted_sextic_matches_v2_model(self):
        """V2 is the sextic in P(1,1,1,1,3): S_0 is the weight-3 ray, and the
        degree-d relations reach a total of 7d, beyond d * (number of rays)."""
        cg = class_group(P11113)
        series = ci_quantum_period(P11113, cg, NefPartition(((0,), (1, 2, 3, 4))), 8)
        at_one = [
            c if isinstance(c, int) else c.substitute({0: Fraction(1)}, 0, {})
            for c in series.coefficients
        ]
        (v2,) = [e for e in load_catalog() if e.id == "V2"]
        assert at_one == list(period_coefficients(parse(v2.model, 3), 8).coefficients)
        assert at_one[6] == 155667030019300800

    @pytest.mark.parametrize(
        "fan, blocks",
        [
            (P1xP1, ((0, 2), (1, 3))),
            # the relation (1, 1, 7, 0) misses S_0, and no smaller one does
            (FanData(2, ((-1, -7), (1, 0), (0, 1), (0, -1))), ((3,), (0, 1, 2))),
        ],
    )
    def test_non_ample_s0_rejected(self, fan, blocks):
        with pytest.raises(ToricError, match="S_0 block is not ample"):
            ci_quantum_period(fan, class_group(fan), NefPartition(blocks), 4)

    def test_empty_ample_block_rejected(self):
        with pytest.raises(ToricError):
            NefPartition(((), (0, 1, 2, 3, 4))).validate(5)

    def test_degree_zero(self):
        cg = class_group(P4)
        part = NefPartition(((3, 4), (0, 1, 2)))
        assert ci_quantum_period(P4, cg, part, 0).coefficients[0] == 1

    def test_restricted_constant_term_identity(self):
        """The block polynomials reproduce the combinatorial series:
        sum over a of c(f_1^a f_0^d) with a bounded by polytope containment,
        checked stable under doubling the bound."""
        f0 = parse("w + 1/(x*y*z*w)", 4)
        f1 = parse("x + y + z", 4)
        cg = class_group(P4)
        part = NefPartition(((3, 4), (0, 1, 2)))
        series = ci_quantum_period(P4, cg, part, 4)
        at_one = [
            c if isinstance(c, int) else c.substitute({0: Fraction(1)}, 0, {})
            for c in series.coefficients
        ]
        for d in range(5):
            for bound in (3 * d + 2, 6 * d + 4):
                total = 0
                for a in range(bound + 1):
                    total += ((f1 ** a) * (f0 ** d)).constant_term()
                if bound == 3 * d + 2:
                    first = total
            assert first == total == at_one[d]


class TestFibreFan:
    def test_p1xp2_projects_to_p2(self):
        sub = fibre_fan(P1xP2, [[1, 0, 0]])
        assert sub.rank == 2
        assert set(sub.rays) == {(1, 0), (0, 1), (-1, -1)}

    def test_identity_projection_gives_point_fan(self):
        sub = fibre_fan(P2, [[1, 0], [0, 1]])
        assert sub.rank == 0
        assert sub.rays == ()

    def test_p1xp1_to_p1(self):
        sub = fibre_fan(P1xP1, [[1, 0]])
        assert sub.rank == 1
        assert set(sub.rays) == {(1,), (-1,)}

    def test_non_surjective_rejected(self):
        with pytest.raises(ToricError):
            fibre_fan(P2, [[2, 0]])

    def test_coordinates_match_rational_elimination(self):
        """Fibre rays are the coordinates of the killed rays in the kernel
        basis, as rational elimination finds them."""
        rng = random.Random(7070)
        for index in range(40):
            rank = 2 + index % 2
            fan = random_smooth_fan(rng, rank)
            ray = rng.choice(fan.rays)
            if rank == 2:
                w = [ray[1], -ray[0]]
            else:
                z = [rng.randint(-2, 2) for _ in range(3)]
                w = [
                    ray[(i + 1) % 3] * z[(i + 2) % 3] - ray[(i + 2) % 3] * z[(i + 1) % 3]
                    for i in range(3)
                ]
                if not any(w):
                    continue
                g = gcd(*w)
                w = [x // g for x in w]
            kernel_t = intlinalg.transpose(intlinalg.kernel_basis([w]))
            expected = [
                tuple(int(x) for x in solve_rational_oracle(kernel_t, list(v)))
                for v in fan.rays
                if sum(a * b for a, b in zip(w, v)) == 0
            ]
            try:
                sub = fibre_fan(fan, [w])
            except ToricError:
                assert rank_rational_oracle(expected) < rank - 1
                continue
            assert list(sub.rays) == expected

    def test_partition_of_rays(self):
        proj = [[1, 0, 0]]
        killed = {
            ray for ray in P1xP2.rays if ray[0] == 0
        }
        sub = fibre_fan(P1xP2, proj)
        assert len(sub.rays) == len(killed)
        assert len(sub.rays) + (P1xP2.n_rays - len(killed)) == P1xP2.n_rays


class TestWeightedProjectivePlane:
    def test_standard_plane(self):
        data = wpp_fan_polytope(1, 1, 1)
        assert set(data.vertices) == {(1, 0), (0, 1), (-1, -1)}

    def test_one_one_two(self):
        data = wpp_fan_polytope(1, 1, 2)
        v = list(data.vertices)
        assert sum(w * x for (w, x) in zip((1, 1, 2), [c[0] for c in v])) == 0
        assert sum(w * x for (w, x) in zip((1, 1, 2), [c[1] for c in v])) == 0
        # canonical representative of the GL(2,Z) orbit of {(1,0),(-1,2),(0,-1)}
        from lgforge.intlinalg import row_hermite_form

        ref = row_hermite_form([[1, -1, 0], [0, 2, -1]])
        assert v == [(ref[0][i], ref[1][i]) for i in range(3)]

    def test_markov_square_weights(self):
        data = wpp_fan_polytope(1, 1, 4)
        assert len(data.vertices) == 3
        for coord in range(2):
            assert sum(
                w * v[coord] for w, v in zip((1, 1, 4), data.vertices)
            ) == 0

    def test_ill_formed_weights_rejected(self):
        with pytest.raises(ToricError):
            wpp_fan_polytope(2, 2, 1)

    def test_output_is_the_unique_gl_orbit(self):
        """Every primitive positively-spanning solution of the weight relation
        is left-GL(2,Z)-equivalent to the returned triple (same Hermite form)."""
        from itertools import product as iproduct

        from lgforge.intlinalg import row_hermite_form

        for weights in ((1, 1, 2), (1, 2, 3), (1, 1, 4)):
            mine = wpp_fan_polytope(*weights).vertices
            canonical = row_hermite_form(
                [[v[0] for v in mine], [v[1] for v in mine]]
            )
            w0, w1, w2 = weights
            found = 0
            box = range(-4, 5)
            for v0 in iproduct(box, box):
                if gcd(abs(v0[0]), abs(v0[1])) != 1:
                    continue
                for v1 in iproduct(box, box):
                    if gcd(abs(v1[0]), abs(v1[1])) != 1:
                        continue
                    v2_scaled = (-(w0 * v0[0] + w1 * v1[0]), -(w0 * v0[1] + w1 * v1[1]))
                    if v2_scaled[0] % w2 or v2_scaled[1] % w2:
                        continue
                    v2 = (v2_scaled[0] // w2, v2_scaled[1] // w2)
                    if gcd(abs(v2[0]), abs(v2[1])) != 1:
                        continue
                    # positively spanning: the three rays are not in a half-plane
                    cross01 = v0[0] * v1[1] - v0[1] * v1[0]
                    cross12 = v1[0] * v2[1] - v1[1] * v2[0]
                    cross20 = v2[0] * v0[1] - v2[1] * v0[0]
                    if cross01 == 0 or cross12 == 0 or cross20 == 0:
                        continue
                    if not (cross01 > 0) == (cross12 > 0) == (cross20 > 0):
                        continue
                    # the rays must generate the full lattice, not a sublattice
                    if gcd(gcd(abs(cross01), abs(cross12)), abs(cross20)) != 1:
                        continue
                    h = row_hermite_form(
                        [[v0[0], v1[0], v2[0]], [v0[1], v1[1], v2[1]]]
                    )
                    assert h == canonical, (weights, v0, v1, v2)
                    found += 1
            assert found > 0

    def test_random_weights_satisfy_relation_and_primitivity(self):
        rng = random.Random(7)
        found = 0
        while found < 50:
            w = tuple(rng.randint(1, 12) for _ in range(3))
            if (
                gcd(w[0], w[1]) != 1
                or gcd(w[0], w[2]) != 1
                or gcd(w[1], w[2]) != 1
            ):
                continue
            data = wpp_fan_polytope(*w)
            for coord in range(2):
                assert sum(wi * v[coord] for wi, v in zip(w, data.vertices)) == 0
            for v in data.vertices:
                assert gcd(abs(v[0]), abs(v[1])) == 1
            found += 1


class TestMarkov:
    def test_first_mutation(self):
        assert markov_mutate(MarkovTriple(1, 1, 1), 2).as_tuple() == (1, 1, 2)

    def test_second_mutation(self):
        assert markov_mutate(MarkovTriple(1, 1, 2), 1).as_tuple() == (1, 5, 2)

    def test_involution(self):
        t = MarkovTriple(2, 5, 29)
        for slot in range(3):
            assert markov_mutate(markov_mutate(t, slot), slot) == t

    def test_invalid_triple_rejected(self):
        with pytest.raises(ToricError):
            MarkovTriple(1, 2, 3)

    def test_tree_depth_eight_satisfies_equation(self):
        for (a, b, c) in markov_tree(8):
            assert a * a + b * b + c * c == 3 * a * b * c

    def test_tree_matches_brute_force_below_frontier(self):
        tree6 = {tuple(sorted(t)) for t in markov_tree(6)}
        tree7 = {tuple(sorted(t)) for t in markov_tree(7)}
        frontier = tree7 - tree6
        threshold = min(max(t) for t in frontier) - 1
        expected = markov_solutions_up_to(threshold)
        got = {t for t in tree6 if max(t) <= threshold}
        assert got == expected
