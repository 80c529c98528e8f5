"""Theta kernel tests.

Expected values are produced by wide brute-force summation (the oracle) and,
where stated, frozen literals computed from that oracle.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_theta.errors import NonConvergent
from nodal_theta.theta import (
    SeriesPolicy,
    big_theta,
    e_func,
    psi,
    rho0_factor,
    theta_char,
    theta_char_and_dz,
    theta_char_dz,
    theta_char_dzk,
    translation_factor,
)


def theta_bruteforce(char, z, tau, n_max=40):
    """Independent oracle: direct summation over |n| <= n_max."""
    a, b = char
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        total += cmath.exp(2j * cmath.pi * (0.5 * (n + a) ** 2 * tau + (n + a) * (z + b)))
    return total


RNG = np.random.default_rng(20260808)
TAUS = [1j, 0.3 + 0.8j]


def rand_z(rng, n=1):
    pts = rng.uniform(-1.5, 1.5, size=n) + 1j * rng.uniform(-1.2, 1.2, size=n)
    return pts if n > 1 else complex(pts[0])


class TestEFunc:
    def test_zero(self):
        assert e_func(0.0) == pytest.approx(1.0)

    def test_half_period(self):
        assert e_func(0.5) == pytest.approx(-1.0, abs=1e-15)

    def test_imaginary_argument(self):
        # e(i) = exp(-2 pi), scalar exponential oracle
        assert e_func(1j) == pytest.approx(math.exp(-2 * math.pi), rel=1e-14)
        assert abs(e_func(1j) - 1.8674427317e-3) < 1e-12

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_exponential_law(self, x, y):
        assert abs(e_func(x + y) - e_func(x) * e_func(y)) < 1e-12


class TestThetaChar:
    def test_frozen_value_tau_i(self):
        # oracle: direct summation |n| <= 20 gives 1.086434811213308
        oracle = theta_bruteforce((0.0, 0.0), 0.0, 1j, n_max=20)
        assert abs(oracle - 1.086434811213308) < 1e-15
        assert theta_char((0.0, 0.0), 0.0, 1j) == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_bruteforce_at_random_points(self, tau):
        rng = np.random.default_rng(11)
        for _ in range(25):
            z = rand_z(rng)
            a, b = rng.uniform(-1.5, 1.5, size=2)
            got = theta_char((a, b), z, tau)
            want = theta_bruteforce((a, b), z, tau)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tau", TAUS)
    def test_period_one_in_z(self, tau):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = rand_z(rng)
            lhs = theta_char((0.0, 0.0), z + 1.0, tau)
            rhs = theta_char((0.0, 0.0), z, tau)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tau", TAUS)
    def test_odd_characteristic_vanishes_at_origin(self, tau):
        assert abs(theta_char((0.5, 0.5), 0.0, tau)) < 1e-12

    @pytest.mark.parametrize("tau", TAUS)
    def test_evenness(self, tau):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rand_z(rng)
            lhs = theta_char((0.0, 0.0), -z, tau)
            rhs = theta_char((0.0, 0.0), z, tau)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_array_input_matches_scalar_loop(self):
        zs = rand_z(np.random.default_rng(5), n=17).reshape(17)
        vec = theta_char((0.25, -0.4), zs, 0.3 + 0.8j)
        scal = np.array([theta_char((0.25, -0.4), z, 0.3 + 0.8j) for z in zs])
        assert np.max(np.abs(vec - scal)) < 1e-13

    def test_nonconvergent_for_tiny_im_tau(self):
        with pytest.raises(NonConvergent):
            theta_char((0.0, 0.0), 0.1, 1e-3j, SeriesPolicy(abs_tol=1e-14))

    def test_nonconvergent_for_huge_im_z(self):
        with pytest.raises(NonConvergent):
            theta_char((0.0, 0.0), 0.1 + 1e6j, 1j)
        with pytest.raises(NonConvergent):
            theta_char_dz((0.5, 0.5), np.array([0.2, 0.3 - 2e5j]), 0.3 + 0.8j)
        with pytest.raises(NonConvergent):
            theta_char_and_dz((0.5, 0.5), np.array([0.2, 0.3 - 2e5j]), 0.3 + 0.8j)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            theta_char((0.0, 0.0), 0.0, 1.0 - 0.5j)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SeriesPolicy(abs_tol=2.0)


def theta_mpmath(char, z, tau, k, n_max=30):
    """Independent oracle at 40 digits: termwise k-th derivative summed over
    |n| <= n_max (the tail is below 1e-300 for the arguments used)."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(char[0]), mpmath.mpf(char[1])
        z = mpmath.mpc(z.real, z.imag)
        tau = mpmath.mpc(tau.real, tau.imag)
        total = mpmath.mpc(0)
        for n in range(-n_max, n_max + 1):
            na = n + a
            total += (2j * mpmath.pi * na) ** k * mpmath.exp(
                2j * mpmath.pi * (na * na * tau / 2 + na * (z + b))
            )
        return complex(total)


CHARS = [(0.0, 0.0), (0.5, 0.5), (0.25, -0.4), (-1.3, 0.7)]


def fused_value(char, z, tau):
    return theta_char_and_dz(char, z, tau)[0]


def fused_dz(char, z, tau):
    return theta_char_and_dz(char, z, tau)[1]


class TestFixedWindowKernel:
    """Each point's value depends on that point only, and matches a
    high-precision oracle."""

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("char", CHARS)
    @pytest.mark.parametrize("func", [theta_char, theta_char_dz, fused_value, fused_dz])
    def test_batch_invariance(self, tau, char, func):
        rng = np.random.default_rng(43)
        zs = rng.uniform(-1.5, 1.5, 200) + 1j * np.linspace(-2.0, 3.0, 200)
        rng.shuffle(zs)
        batch = func(char, zs, tau)
        alone = np.array([func(char, complex(z), tau) for z in zs])
        assert np.array_equal(alone, batch)
        for m in (1, 3, 5, 7, 33, 64):
            assert np.array_equal(func(char, zs[:m], tau), batch[:m])

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("char", CHARS)
    def test_fused_pass_equals_single_calls(self, tau, char):
        rng = np.random.default_rng(53)
        zs = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-2.0, 3.0, 40)
        for z in (zs, zs.reshape(5, 8)):
            value, deriv = theta_char_and_dz(char, z, tau)
            assert np.array_equal(value, theta_char(char, z, tau))
            assert np.array_equal(deriv, theta_char_dz(char, z, tau))
        for z in (complex(zs[0]), np.asarray(zs[0])):
            value, deriv = theta_char_and_dz(char, z, tau)
            assert type(value) is complex and type(deriv) is complex
            assert value == theta_char(char, z, tau)
            assert deriv == theta_char_dz(char, z, tau)

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_matches_mpmath_oracle(self, k):
        rng = np.random.default_rng(47)
        worst = 0.0
        for tau in TAUS:
            zs = rng.uniform(-1.5, 1.5, 6) + 1j * rng.uniform(-2.0, 3.0, 6)
            for char in CHARS:
                got = theta_char_dzk(char, zs, tau, k)
                for z, g in zip(zs, got):
                    ref = theta_mpmath(char, z, tau, k)
                    worst = max(worst, abs(g - ref) / max(1.0, abs(ref)))
        assert worst <= 2e-14


class TestDerivative:
    def test_even_theta_has_critical_origin(self):
        assert abs(theta_char_dz((0.0, 0.0), 0.0, 1j)) < 1e-12

    def test_matches_finite_difference_odd_char(self):
        h = 1e-5
        fd = (theta_char((0.5, 0.5), h, 1j) - theta_char((0.5, 0.5), -h, 1j)) / (2 * h)
        an = theta_char_dz((0.5, 0.5), 0.0, 1j)
        assert abs(an) > 1.0  # nonzero derivative at the simple zero
        assert abs(an - fd) <= 1e-8 * abs(an)

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_finite_difference_random(self, tau):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(10):
            z = rand_z(rng)
            a, b = rng.uniform(-1.0, 1.0, size=2)
            fd = (theta_char((a, b), z + h, tau) - theta_char((a, b), z - h, tau)) / (2 * h)
            an = theta_char_dz((a, b), z, tau)
            assert abs(an - fd) <= 1e-7 * max(1.0, abs(an))

    def test_derivative_inherits_period_one(self):
        rng = np.random.default_rng(17)
        z = rand_z(rng)
        lhs = theta_char_dz((0.0, 0.0), z + 1.0, 1j)
        rhs = theta_char_dz((0.0, 0.0), z, 1j)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestTranslation:
    def test_trivial_shift(self):
        assert translation_factor((0.0, 0.0), 1, 0, 0.37 + 0.11j, 1j) == pytest.approx(1.0)

    def test_tau_shift_formula(self):
        z = 0.2 - 0.3j
        got = translation_factor((0.0, 0.0), 0, 1, z, 1j)
        assert abs(got - e_func(-0.5j - z)) < 1e-14

    def test_numeric_identity_p2_qm1(self):
        tau = 0.3 + 0.8j
        rng = np.random.default_rng(23)
        for _ in range(5):
            z = rand_z(rng)
            fac = translation_factor((0.0, 0.0), 2, -1, z, tau)
            lhs = theta_char((0.0, 0.0), z + 2 - tau, tau)
            rhs = fac * theta_char((0.0, 0.0), z, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tau", TAUS)
    def test_quasi_periodicity_sweep(self, tau):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(100):
            z = rand_z(rng)
            a, b = rng.uniform(-1.0, 1.0, size=2)
            p, q = rng.integers(-3, 4, size=2)
            fac = translation_factor((a, b), int(p), int(q), z, tau)
            lhs = theta_char((a, b), z + p + q * tau, tau)
            rhs = fac * theta_char((a, b), z, tau)
            worst = max(worst, abs(lhs - rhs) / max(1e-30, abs(rhs)))
        assert worst < 1e-10


class TestRho0AndPsi:
    def test_rho0_on_one(self):
        assert rho0_factor("one", 0.123 + 4.5j, 1j) == pytest.approx(1.0)

    def test_rho0_on_tau(self):
        got = rho0_factor("tau", 0.0, 1j)
        assert abs(got - e_func(-0.5j)) < 1e-14

    def test_rho0_consistent_with_translation(self):
        z = -0.4 + 0.27j
        assert abs(rho0_factor("tau", z, 1j) - translation_factor((0.0, 0.0), 0, 1, z, 1j)) < 1e-14

    def test_rho0_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            rho0_factor("two", 0.0, 1j)

    def test_psi_identity(self):
        assert psi(0, 0, 0.3, 0.7) == pytest.approx(1.0)

    def test_psi_single_generator(self):
        r1 = -0.2
        assert abs(psi(1, 0, r1, 0.55) - e_func(r1)) < 1e-14

    @given(
        st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_psi_homomorphism(self, p, q, pp, qq, r1, r2):
        lhs = psi(p + pp, q + qq, r1, r2)
        rhs = psi(p, q, r1, r2) * psi(pp, qq, r1, r2)
        assert abs(lhs - rhs) < 1e-12


class TestBigTheta:
    R1, R2 = -0.2, 0.3

    def _theta2(self, z, w, tau):
        return big_theta(z, w, tau, self.R1, self.R2)

    @pytest.mark.parametrize("tau", TAUS)
    def test_shift_by_1_r1(self, tau):
        rng = np.random.default_rng(31)
        for _ in range(10):
            z, w = rand_z(rng), rand_z(rng)
            lhs = self._theta2(z + 1.0, w + self.R1, tau)
            rhs = self._theta2(z, w, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tau", TAUS)
    def test_shift_w_by_integer(self, tau):
        rng = np.random.default_rng(37)
        z, w = rand_z(rng), rand_z(rng)
        lhs = self._theta2(z, w + 1.0, tau)
        rhs = self._theta2(z, w, tau)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("tau", TAUS)
    def test_shift_by_tau_r2(self, tau):
        rng = np.random.default_rng(41)
        for _ in range(10):
            z, w = rand_z(rng), rand_z(rng)
            lhs = self._theta2(z + tau, w + self.R2, tau)
            rhs = e_func(-0.5 * tau - z) * self._theta2(z, w, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
