"""Divisor-direction degenerations and coefficient limits."""

import random
from fractions import Fraction

import pytest

from lgforge import (
    DivisorOnFan,
    FanData,
    class_group,
    direction_degeneration,
    hori_vafa,
    parameter_direction_limit,
    parameter_limit,
    parse,
    restrict_model,
    toric_pair_model,
)
from lgforge.degeneration import DegenerationError
from lgforge.laurent import LaurentError

BL2_P3 = FanData(
    3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0), (0, -1, 0))
)
BL2_P2 = FanData(2, ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)))


class TestDirectionDegeneration:
    def test_blow_up_of_p3_at_two_points(self):
        result = direction_degeneration(DivisorOnFan(BL2_P3, (0, 0, 1, 0, 2, 0)))
        assert set(result.min_rays(BL2_P3)) == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (-1, -1, -1),
            (0, -1, 0),
        }
        assert set(result.max_rays(BL2_P3)) == {(0, 1, 0), (0, -1, 0)}

    def test_zero_divisor_keeps_everything(self):
        result = direction_degeneration(DivisorOnFan(BL2_P3, (0,) * 6))
        assert result.f_min_support == tuple(range(6))
        assert result.f_max_support == tuple(range(6))
        assert result.polytope_vertices == ((Fraction(0), Fraction(0), Fraction(0)),)

    def test_blow_up_of_p2_line_direction(self):
        result = direction_degeneration(DivisorOnFan(BL2_P2, (0, 0, 1, 0, 0)))
        expected = {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert set(result.min_rays(BL2_P2)) == expected
        assert set(result.max_rays(BL2_P2)) == expected

    def test_restrict_to_max_gives_fibre_model(self):
        model = hori_vafa(BL2_P3)
        result = direction_degeneration(DivisorOnFan(BL2_P3, (0, 0, 1, 0, 2, 0)))
        fibre = restrict_model(model, result.max_rays(BL2_P3))
        assert fibre == parse("y + 1/y", 3)

    def test_both_stated_coefficient_representations_agree(self):
        # the two displayed degenerating families use different ray coefficients
        # for the same divisor class; the supports must not see the difference
        base = direction_degeneration(DivisorOnFan(BL2_P3, (0, 0, 1, 0, 2, 0)))
        for d in ((0, 0, 0, 1, 2, 0), (1, 0, 0, 0, 1, 0)):
            other = direction_degeneration(DivisorOnFan(BL2_P3, d))
            assert other.f_min_support == base.f_min_support
            assert other.f_max_support == base.f_max_support

    def test_nesting(self):
        rng = random.Random(11)
        for _ in range(25):
            d = tuple(Fraction(rng.randint(0, 3)) for _ in range(6))
            result = direction_degeneration(DivisorOnFan(BL2_P3, d))
            assert set(result.f_max_support) <= set(result.f_min_support)
            assert all(lo >= 0 for lo, _ in result.intervals)

    def test_scaling_invariance(self):
        rng = random.Random(13)
        for _ in range(20):
            d = tuple(Fraction(rng.randint(0, 3)) for _ in range(6))
            base = direction_degeneration(DivisorOnFan(BL2_P3, d))
            scaled = direction_degeneration(
                DivisorOnFan(BL2_P3, tuple(Fraction(5, 2) * x for x in d))
            )
            assert base.f_min_support == scaled.f_min_support
            assert base.f_max_support == scaled.f_max_support

    def test_principal_shift_invariance(self):
        rng = random.Random(17)
        for _ in range(20):
            d = [Fraction(rng.randint(0, 2)) for _ in range(6)]
            m0 = [rng.randint(-2, 2) for _ in range(3)]
            shifted = [
                d[i] + sum(m0[j] * BL2_P3.rays[i][j] for j in range(3))
                for i in range(6)
            ]
            try:
                base = direction_degeneration(DivisorOnFan(BL2_P3, tuple(d)))
            except DegenerationError:
                continue
            moved = direction_degeneration(DivisorOnFan(BL2_P3, tuple(shifted)))
            assert base.f_min_support == moved.f_min_support
            assert base.f_max_support == moved.f_max_support

    def test_non_effective_rejected(self):
        with pytest.raises(DegenerationError):
            DivisorOnFan(BL2_P3, (-1, 0, 0, 0, 0, 0))

    def test_incomplete_fan_rejected(self):
        half = FanData(2, ((1, 0), (0, 1), (1, 1)))
        with pytest.raises(DegenerationError):
            DivisorOnFan(half, (1, 1, 1))

    @pytest.mark.parametrize("value", [0.1, 1.0, True, "1/2"])
    def test_inexact_coefficient_rejected(self, value):
        """0.1 would otherwise be stored as 3602879701896397/36028797018963968."""
        with pytest.raises(DegenerationError, match="is not an exact rational"):
            DivisorOnFan(BL2_P2, (value, 0, 0, 0, 0))


class TestParameterLimits:
    def test_limit_drops_vanishing_terms(self):
        f = parse("(x+y+1)^6*(a2*z+1)/(x*y^2*z) + a1*z", 3, 2)
        g = parameter_limit(f, [0])
        assert g == parse("(x+y+1)^6*(a1*z+1)/(x*y^2*z)", 3, 1)

    def test_empty_dying_set(self):
        f = parse("a1*x + y", 2, 1)
        assert parameter_limit(f, []) == f

    def test_annihilation(self):
        f = parse("a1/x", 1, 1)
        assert parameter_limit(f, [0]).is_zero

    @pytest.mark.parametrize("dying", [[0.5], [True], ["0"]])
    def test_non_integer_index_rejected(self, dying):
        """0.5 would otherwise send a1 to 0, and True a2."""
        f = parse("a1*x+a2*y+1/(x*y)", 2, 2)
        with pytest.raises(LaurentError, match="is not an integer"):
            parameter_limit(f, dying)

    def test_negative_exponent_diverges(self):
        f = parse("x/a1", 1, 1)
        with pytest.raises(Exception):
            parameter_limit(f, [0])

    def test_direction_limit(self):
        f = parse("(y+1)^2*(a2*x+a2*z+1)^2/(x*y*z) + a1*x + a1*z", 3, 2)
        g = parameter_direction_limit(f, (1, -1))
        assert g.substitute_parameters({0: 1, 1: 1}) == parse(
            "(y+1)^2*(x+z)^2/(x*y*z)", 3
        )

    def test_direction_limit_trivial_direction(self):
        f = parse("a1*x + y", 2, 1)
        assert parameter_direction_limit(f, (0,)) == f

    @pytest.mark.parametrize("value", [0.1, True])
    def test_inexact_direction_rejected(self, value):
        f = parse("a1*x + a2*y", 2, 2)
        with pytest.raises(DegenerationError, match="is not an exact rational"):
            parameter_direction_limit(f, (value, 1))


class TestRestrict:
    def test_full_support(self):
        f = parse("x + 2*y + 3/(x*y)", 2)
        assert restrict_model(f, list(f.terms)) == f

    def test_empty_keep(self):
        f = parse("x + y", 2)
        assert restrict_model(f, []).is_zero

    def test_keep_outside_support_rejected(self):
        f = parse("x + y", 2)
        with pytest.raises(DegenerationError):
            restrict_model(f, [(5, 5)])

    def test_non_integer_exponent_rejected(self):
        """(1.5, 0) would otherwise be truncated to the exponent of x."""
        f = parse("x + y + 1/(x*y)", 2)
        with pytest.raises(DegenerationError, match="is not a vector of integers"):
            restrict_model(f, [(1.5, 0)])


class TestConsistencyWithParameterLimits:
    def test_bl2_p3(self):
        cg = class_group(BL2_P3)
        model = toric_pair_model(BL2_P3, cg)
        result = direction_degeneration(DivisorOnFan(BL2_P3, (0, 0, 1, 0, 2, 0)))
        surviving = set(result.min_rays(BL2_P3))
        # parameters whose monomials sit only on dropped rays go to zero
        dropped_rays = [i for i in range(6) if BL2_P3.rays[i] not in surviving]
        dying = set()
        for i in dropped_rays:
            for j in range(cg.class_rank):
                if cg.section[i][j] > 0:
                    dying.add(j)
        limited = parameter_limit(model, sorted(dying))
        kept_at_one = limited.substitute_parameters(
            {i: 1 for i in range(limited.param_rank)}
        )
        expected = restrict_model(hori_vafa(BL2_P3), surviving)
        assert kept_at_one == expected

    def test_bl2_p2(self):
        cg = class_group(BL2_P2)
        model = toric_pair_model(BL2_P2, cg)
        result = direction_degeneration(DivisorOnFan(BL2_P2, (0, 0, 1, 0, 0)))
        surviving = set(result.min_rays(BL2_P2))
        dropped_rays = [i for i in range(5) if BL2_P2.rays[i] not in surviving]
        dying = set()
        for i in dropped_rays:
            for j in range(cg.class_rank):
                if cg.section[i][j] > 0:
                    dying.add(j)
        limited = parameter_limit(model, sorted(dying))
        kept_at_one = limited.substitute_parameters(
            {i: 1 for i in range(limited.param_rank)}
        )
        assert kept_at_one == restrict_model(hori_vafa(BL2_P2), surviving)
