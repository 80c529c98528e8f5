import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_theta.curve import (
    NodalCurveSpec,
    PeriodGroup,
    congruent_mod_gamma,
    derive_periods,
    is_toroidal,
    lattice_coords,
    mod_gamma_decompose,
    period_group,
    reduce_to_cell,
)


class TestDerivePeriods:
    def test_real_offset_square_lattice(self):
        spec = NodalCurveSpec(tau=1j, p1=0.7 + 0.4j, p2=0.4 + 0.4j, z0=0.15 + 0.75j)
        r1, r2, kap = derive_periods(spec)
        assert kap == pytest.approx(0.0, abs=1e-15)
        assert r1 == pytest.approx(0.0, abs=1e-15)
        assert r2 == pytest.approx(0.3, abs=1e-15)

    def test_complex_offset_square_lattice(self):
        # p1 - p2 = 0.3 + 0.2i and tau = i gives kappa = -0.2, r1 = -0.2, r2 = 0.3
        spec = NodalCurveSpec(tau=1j, p1=0.7 + 0.6j, p2=0.4 + 0.4j, z0=0.15 + 0.8j)
        r1, r2, kap = derive_periods(spec)
        assert kap == pytest.approx(-0.2, abs=1e-15)
        assert r1 == pytest.approx(-0.2, abs=1e-15)
        assert r2 == pytest.approx(0.3, abs=1e-15)

    def test_invariant_under_lattice_translates_after_canonicalization(self):
        base = NodalCurveSpec(tau=1j, p1=0.7 + 0.6j, p2=0.4 + 0.4j, z0=0.15 + 0.8j)
        moved = NodalCurveSpec(
            tau=1j, p1=0.7 + 0.6j + (2 - 3j), p2=0.4 + 0.4j + (-1 + 1j), z0=0.15 + 0.8j
        )
        assert derive_periods(base) == pytest.approx(derive_periods(moved), abs=1e-14)


class TestModGamma:
    PG = PeriodGroup(r1=-0.17, r2=0.31, tau=1j)

    def test_first_generator(self):
        dec = mod_gamma_decompose((0.0, 1.0), self.PG)
        assert (dec.m, dec.p, dec.q) == (1, 0, 0)
        assert dec.residual_norm < 1e-15

    def test_third_generator(self):
        dec = mod_gamma_decompose((self.PG.tau, self.PG.r2), self.PG)
        assert (dec.m, dec.p, dec.q) == (0, 0, 1)
        assert dec.residual_norm < 1e-15

    def test_sum_of_generators(self):
        v = (1 + self.PG.tau, self.PG.r1 + self.PG.r2 + 1)
        dec = mod_gamma_decompose(v, self.PG)
        assert (dec.m, dec.p, dec.q) == (1, 1, 1)
        assert dec.residual_norm < 1e-15

    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_exact_on_integer_combinations(self, m, p, q):
        pg = self.PG
        v = (p + q * pg.tau, m + p * pg.r1 + q * pg.r2)
        dec = mod_gamma_decompose(v, pg)
        assert (dec.m, dec.p, dec.q) == (m, p, q)
        assert dec.residual_norm < 1e-10

    @pytest.mark.parametrize("m, p, q", [(0, 0, 0), (2, -1, 1), (-3, 2, -2)])
    def test_half_tau_offset_is_stable_under_last_bit_changes(self, m, p, q):
        # v sits tau/2 from a Gamma element, so q solves to a half-integer
        # and plain rounding picks either neighbour under a 1e-15 change
        pg = PeriodGroup(r1=-0.17, r2=0.31, tau=0.3 + 0.8j)
        base = (p + q * pg.tau + 0.5 * pg.tau, m + p * pg.r1 + q * pg.r2 + 0.23 + 0.05j)
        norms = []
        for sign in (-1.0, 1.0):
            v = (base[0] + sign * 1e-15j, base[1])
            norms.append(mod_gamma_decompose(v, pg).residual_norm)
        assert abs(norms[0] - norms[1]) < 1e-12
        # and it is the better of the two neighbouring Gamma elements
        for qq in (q, q + 1):
            rz = base[0] - p - qq * pg.tau
            rw = base[1] - p * pg.r1 - qq * pg.r2
            rw -= round(rw.real)
            assert norms[0] <= math.hypot(abs(rz), abs(rw)) + 1e-12

    def test_congruence_reflexive(self):
        v = (0.3 + 0.4j, -1.2 + 0.1j)
        assert congruent_mod_gamma(v, v, self.PG)

    def test_half_offset_not_congruent(self):
        assert not congruent_mod_gamma((0.0, 0.5), (0.0, 0.0), self.PG, tol=1e-6)

    def test_second_generator_congruent(self):
        assert congruent_mod_gamma((1.0, self.PG.r1), (0.0, 0.0), self.PG)

    def test_symmetry_and_transitivity_sampled(self):
        rng = np.random.default_rng(2)
        pg = self.PG
        tol = 1e-6
        for _ in range(20):
            base = (complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
            m, p, q = rng.integers(-3, 4, 3)
            n2, p2, q2 = rng.integers(-3, 4, 3)
            jitter = 1e-8
            v = base
            w = (
                base[0] + p + q * pg.tau + jitter,
                base[1] + m + p * pg.r1 + q * pg.r2 - jitter,
            )
            x = (
                w[0] + p2 + q2 * pg.tau - jitter,
                w[1] + n2 + p2 * pg.r1 + q2 * pg.r2 + jitter,
            )
            assert congruent_mod_gamma(v, w, pg, tol) == congruent_mod_gamma(w, v, pg, tol)
            if congruent_mod_gamma(v, w, pg, tol) and congruent_mod_gamma(w, x, pg, tol):
                assert congruent_mod_gamma(v, x, pg, 2 * tol)


class TestIsToroidal:
    def test_zero_r1_is_degenerate(self):
        assert is_toroidal(0.0, 0.3) is False

    def test_small_rationals_found(self):
        assert is_toroidal(1.0 / 3.0, 1.0 / 7.0) is False

    def test_scaled_irrationals_pass_bounded_search(self):
        r1 = math.sqrt(2) - 1.0          # 0.414...
        r2 = math.sqrt(3) - 1.0          # 0.732...
        # oracle: exhaustive search over the same window finds no relation
        found = any(
            abs(p * r1 + q * r2 - round(p * r1 + q * r2)) < 1e-9
            for p in range(-50, 51)
            for q in range(-50, 51)
            if (p, q) != (0, 0)
        )
        assert not found
        assert is_toroidal(r1, r2) is True


class TestSpecValidation:
    def test_reduces_representatives(self):
        spec = NodalCurveSpec(tau=1j, p1=2.7 + 1.4j, p2=0.4 - 0.6j, z0=0.15 + 0.75j)
        assert spec.p1 == pytest.approx(0.7 + 0.4j)
        assert spec.p2 == pytest.approx(0.4 + 0.4j)

    def test_rejects_identified_points_colliding(self):
        with pytest.raises(ValueError):
            NodalCurveSpec(tau=1j, p1=0.4 + 0.4j, p2=1.4 + 0.4j, z0=0.1 + 0.1j)

    def test_rejects_overlapping_disks(self):
        with pytest.raises(ValueError):
            NodalCurveSpec(
                tau=1j, p1=0.5 + 0.5j, p2=0.56 + 0.5j, z0=0.1 + 0.1j, delta=0.04, eps=0.04
            )

    def test_rejects_disk_touching_cut(self):
        with pytest.raises(ValueError):
            NodalCurveSpec(tau=1j, p1=0.5 + 0.03j, p2=0.5 + 0.5j, z0=0.1 + 0.1j, delta=0.05)

    def test_rejects_base_point_on_node(self):
        with pytest.raises(ValueError):
            NodalCurveSpec(tau=1j, p1=0.5 + 0.5j, p2=0.2 + 0.2j, z0=0.5 + 0.5j)

    @pytest.mark.parametrize("field", [
        {"eps": math.nan}, {"delta": math.inf}, {"quad_tol": math.nan},
        {"tau": complex(math.nan, 1.0)}, {"p1": complex(0.5, math.nan)},
    ])
    def test_rejects_non_finite(self, field):
        # NaN passes every ordered comparison check, so it needs its own
        base = dict(tau=1j, p1=0.76 + 0.52j, p2=0.45 + 0.35j, z0=0.14 + 0.18j, delta=0.06, eps=0.06)
        with pytest.raises(ValueError, match="finite"):
            NodalCurveSpec(**{**base, **field})

    def test_lattice_round_trip(self):
        tau = 0.3 + 0.8j
        z = 0.37 + 0.41j
        s, t = lattice_coords(z, 0.1, tau)
        assert 0.1 + s + t * tau == pytest.approx(z)
        assert reduce_to_cell(z + 3 - 2 * tau, 0.1, tau) == pytest.approx(z)

    def test_period_group_generators_shape(self, spec_a):
        pg = period_group(spec_a)
        gens = pg.generators
        assert gens.shape == (2, 3)
        assert gens[0, 1] == 1.0 and gens[1, 0] == 1.0
