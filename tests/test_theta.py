"""Theta kernel tests.

Expected values are produced by wide brute-force summation (the oracle) and,
where stated, frozen literals computed from that oracle.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_theta import theta
from nodal_theta.curve import derive_periods
from nodal_theta.errors import NonConvergent
from nodal_theta.inversion import _pullback_chars, sample_generic_c
from nodal_theta.theta import (
    big_theta,
    e_func,
    theta_char,
    theta_chars,
    translation_factor,
)
from conftest import GENERATED_SPECS, generated_spec
from oracles import row_sums_elementwise, theta_mpmath, window_coeffs_direct


def theta_char_dz(char, z, tau):
    """theta'[char](z): one characteristic at derivative order 1."""
    return theta_chars((char,), z, tau, (1,))[0][0]


def theta_char_and_dz(char, z, tau):
    """(theta, theta') of one characteristic from one pass."""
    return theta_chars((char,), z, tau, (0, 1))[0]


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
            theta_char((0.0, 0.0), 0.1, 1e-3j)

    def test_nonconvergent_for_huge_im_z(self):
        with pytest.raises(NonConvergent):
            theta_char((0.0, 0.0), 0.1 + 1e6j, 1j)
        with pytest.raises(NonConvergent):
            theta_char((0.0, 1e6j), 0.1, 1j)
        with pytest.raises(NonConvergent):
            theta_char_dz((0.5, 0.5), np.array([0.2, 0.3 - 2e5j]), 0.3 + 0.8j)
        with pytest.raises(NonConvergent):
            theta_char_and_dz((0.5, 0.5), np.array([0.2, 0.3 - 2e5j]), 0.3 + 0.8j)

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.nan, math.nan), complex(math.inf, 0.0), 0.3 + 1e6j, 0.3 - 1e6j])
    def test_nonconvergent_for_non_finite_and_far_points(self, point):
        # alone and beside finite points, at every order set: a NaN or far
        # Im z fails the strip check, a non-finite Re z the finiteness check
        for orders in ((0,), (1,), (0, 1)):
            for z in (point, np.array([0.2, point, 0.4j])):
                with pytest.raises(NonConvergent):
                    theta_chars(((0.0, 0.0), (0.5, 0.5 + 0.2j)), z, 1j, orders)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            theta_char((0.0, 0.0), 0.0, 1.0 - 0.5j)


CHARS = [(0.0, 0.0), (0.5, 0.5), (0.25, -0.4), (-1.3, 0.7)]


def complex_chars(tau):
    """Characteristics with a complex b, |Im b| up to 1.5 Im(tau): a theta
    at a constant shift of its argument, theta[a; b - s](z) = theta[a;b](z - s)."""
    return [(a, b + 1j * s * tau.imag) for a, b, s in ((0.0, 0.3, 1.5), (0.5, -0.2, -1.5), (0.25, 0.1, 0.7), (-1.3, 0.7, -0.45))]


def fused_value(char, z, tau):
    return theta_char_and_dz(char, z, tau)[0]


def fused_dz(char, z, tau):
    return theta_char_and_dz(char, z, tau)[1]


class TestFixedWindowKernel:
    """Each point's value depends on that point only, and matches a
    high-precision oracle."""

    @pytest.mark.bitwise
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
        # around the padding of a pass to a multiple of theta._COLUMNS points
        for m in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64):
            assert np.array_equal(func(char, zs[:m], tau), batch[:m])

    @pytest.mark.bitwise
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

    @pytest.mark.bitwise
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("func", [theta_char, theta_char_dz, fused_value, fused_dz, theta_char_and_dz])
    def test_batch_invariance_across_blocks(self, tau, func):
        # batches that fill one block, split into two or three, and whose
        # first points are also evaluated as batches of 1, 2 and 3; each
        # output of func is a row: theta_char_and_dz gives two
        block = theta._BLOCK
        rng = np.random.default_rng(59)
        n = 2 * block + 1
        zs = rng.uniform(-1.5, 1.5, n) + 1j * np.linspace(-2.0, 3.0, n)
        rng.shuffle(zs)
        for char in ((-1.3, 0.7), (0.25, -0.4 + 1.2j)):
            alone = np.array([func(char, complex(z), tau) for z in zs]).reshape(n, -1).T
            for m in (block - 1, block, block + 1, n):
                batch = np.reshape(func(char, zs[:m], tau), (-1, m))
                assert np.array_equal(batch, alone[:, :m])
                for p in (1, 2, 3):
                    assert np.array_equal(np.reshape(func(char, zs[:p], tau), (-1, p)), batch[:, :p])

    @pytest.mark.parametrize("func", [theta_char, theta_char_and_dz])
    def test_kernel_memory_is_bounded(self, func):
        # 65,536 points and a 9-term window: one (points, window) array of
        # the terms would alone take 9 MiB, and the same pass unblocked
        # peaks at 16 MiB (16.5 MiB with the derivative); blocks of _BLOCK
        # points peak at 1.5 MiB (2.5 MiB)
        rng = np.random.default_rng(61)
        zs = rng.uniform(-1.5, 1.5, 65_536) + 1j * rng.uniform(-1.2, 1.2, 65_536)
        func((0.25, -0.4), zs, 0.3 + 0.8j)  # warm-up: the cached window
        tracemalloc.start()
        try:
            func((0.25, -0.4), zs, 0.3 + 0.8j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_mpmath_oracle(self, k):
        rng = np.random.default_rng(47)
        worst = 0.0
        for tau in TAUS:
            zs = rng.uniform(-1.5, 1.5, 6) + 1j * rng.uniform(-2.0, 3.0, 6)
            chars = CHARS + complex_chars(tau)
            shared = theta_chars(chars, zs, tau, (k,))
            for char, (got_shared,) in zip(chars, shared):
                ((got,),) = theta_chars((char,), zs, tau, (k,))
                for z, g, gs in zip(zs, got, got_shared):
                    ref = theta_mpmath(char, z, tau, k)
                    worst = max(worst, abs(g - ref) / max(1.0, abs(ref)), abs(gs - ref) / max(1.0, abs(ref)))
        assert worst <= 2e-14

    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_mpmath_oracle_where_the_window_bound_binds(self, k):
        # points on both strip edges, Im w = +-Im(tau)/2, and b real or with
        # Im beta = +-Im(tau)/2: the Gaussian centre of the terms lies 1/2 or
        # 1 from n + a = 0, as far as the window allows; a runs over the
        # characteristics of both presets' pullbacks
        worst = 0.0
        for tau in TAUS:
            h = tau.imag / 2
            zs = np.array([x + s * h * 1j for x in (-0.6, 0.0, 0.37, 0.81) for s in (-1, 1)])
            for a in (0.0, 0.17, 0.5, 0.8375):
                for b in (0.3, 0.3 + h * 1j, 0.3 - h * 1j):
                    ((got,),) = theta_chars(((a, b),), zs, tau, (k,))
                    for z, g in zip(zs, got):
                        ref = theta_mpmath((a, b), z, tau, k)
                        worst = max(worst, abs(g - ref) / max(1.0, abs(ref)))
        assert worst <= 2e-14


class TestWindows:
    """A window twists its characteristic's cached tau-only Gaussian
    e(nk^2 tau/2) by e(nk beta) (theta._window); the direct route takes one
    exponential of the whole exponent (oracles.window_coeffs_direct).  Each
    rounds its exponent, so they agree within 2 eps (1 + 2 pi (|nk^2 tau/2|
    + |nk beta|)) relative; on both presets the largest difference measured
    is half of that bound, and up to 41 eps of the coefficient."""

    def test_shifted_windows_match_the_direct_exponential(self, spec_ab):
        tau = spec_ab.tau
        rng = np.random.default_rng(89)
        eps = np.finfo(np.float64).eps
        for _ in range(20):
            c, _ = sample_generic_c(spec_ab, rng)
            for a, b in _pullback_chars(spec_ab, c[0]) + tuple(complex_chars(tau)):
                _, beta, _, nk, got = theta._window(float(a), complex(b), tau)
                want = window_coeffs_direct(float(a), complex(b), tau)
                bound = 2 * eps * (1 + 2 * np.pi * (0.5 * nk * nk * abs(tau) + np.abs(nk * beta))) * np.abs(want)
                assert np.all(np.abs(got - want) <= bound)


class TestMatrixProductRowSums:
    """_row_sums takes every window's row sums of a block from one matrix
    product; the elementwise route (oracles.row_sums_elementwise) sums each
    window's weighted table on its own.  They agree within (K + 2) eps of
    the sum of the moduli of the terms, K = 2 (N + 2) the widest window's
    table entries: each route's recursive sum of K products lies within
    about (K + 1) u of the exact sum on that scale, u = eps/2."""

    @staticmethod
    def assert_matches_elementwise(chars, zs, tau):
        window_set = theta._window_set(chars, tau, (0, 1))
        got = np.empty((2 * len(chars), len(zs)), dtype=np.complex128)
        theta._row_sums(zs, tau, window_set, got)
        want, scale = row_sums_elementwise(chars, zs, tau, (0, 1))
        bound = (2 * window_set.n_rows + 2) * np.finfo(np.float64).eps
        assert np.all(np.abs(got - want) <= bound * scale)

    @staticmethod
    def edge_points(rng, tau, n=24):
        # both strip edges, Im w = +-Im(tau)/2, in the strips q = -1, 0, 2
        x = rng.uniform(-1.0, 2.0, n)
        return np.concatenate([x + s * 0.5j * tau.imag + q * tau for s in (-1, 1) for q in (-1, 0, 2)])

    def test_matches_the_elementwise_route_on_the_presets(self, spec_ab):
        # T_c's four characteristics, and complex b with m = -2, 2, -1, 0,
        # so the strip shifts Q = q - m are nonzero
        tau = spec_ab.tau
        rng = np.random.default_rng(71)
        for _ in range(10):
            c, _ = sample_generic_c(spec_ab, rng)
            zs = self.edge_points(rng, tau)
            for chars in (_pullback_chars(spec_ab, c[0]), tuple(complex_chars(tau))):
                self.assert_matches_elementwise(chars, zs, tau)

    @given(**GENERATED_SPECS, c1=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_matches_the_elementwise_route_on_generated_specs(self, tau, q0, coords, c1):
        spec = generated_spec(tau, q0, coords)
        zs = self.edge_points(np.random.default_rng(73), spec.tau)
        self.assert_matches_elementwise(_pullback_chars(spec, c1[0] + c1[1] * spec.tau), zs, spec.tau)


class TestSharedWindowPass:
    """theta_chars: several characteristics at one argument from one pass,
    each value equal to its single-characteristic call."""

    @pytest.fixture
    def char_sets(self, spec_b):
        # config B's pair (theta00, theta[-r1;r2]), in both orders, three
        # characteristics of one half-width, the four of a pullback T_c on
        # config B (the pair shifted by z0 + c1, theta11 shifted by p1 and by
        # p2), and real and complex b of unequal widths mixed
        r1, r2, _ = derive_periods(spec_b)
        pair = ((0.0, 0.0), (-r1, r2))
        s = spec_b.z0 + (0.37 + 0.61 * spec_b.tau)
        pullback = ((0.0, -s), (-r1, r2 - s), (0.5, 0.5 - spec_b.p1), (0.5, 0.5 - spec_b.p2))
        mixed = ((0.5, 0.5), (0.25, -0.4 + 1.1j), (0.0, 0.0), (-1.3, 0.7 - 0.9j))
        return [pair, pair[::-1], ((0.5, 0.5), (0.25, -0.4), (-1.3, 0.7)), pullback, mixed]

    def test_config_b_pair_has_unequal_half_widths(self, spec_b, char_sets):
        # both b are real: the Gaussian centre lies within 1/2 of 0
        widths = [theta._halfwidth(a - math.floor(a), spec_b.tau.imag, 0.5) for a, _ in char_sets[0]]
        assert widths == [3, 4]

    @pytest.mark.bitwise
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("orders", [(0,), (1,), (0, 1)])
    def test_each_value_equals_its_single_call(self, tau, orders, char_sets):
        block = theta._BLOCK
        rng = np.random.default_rng(67)
        n = block + 1
        zs = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-2.0, 3.0, n)
        args = [complex(zs[0]), np.asarray(zs[1]), zs[:24].reshape(4, 6)]
        args += [zs[:m] for m in (1, 2, 3, block - 1, block + 1)]
        for chars in char_sets:
            for z in args:
                shared = theta_chars(chars, z, tau, orders)
                assert len(shared) == len(chars)
                for char, values in zip(chars, shared):
                    assert len(values) == len(orders)
                    for k, got in zip(orders, values):
                        ((want,),) = theta_chars((char,), z, tau, (k,))
                        if np.ndim(z) == 0:
                            assert type(got) is complex and got == want
                        else:
                            assert got.shape == np.shape(z)
                            assert np.array_equal(got, want)


    @pytest.mark.parametrize("orders", [(2,), (0, 1, 3), (1, 0)])
    def test_rejects_orders_other_than_0_and_1(self, orders):
        # a pass serves (0,), (1,) and (0, 1): its windows bound the tail of
        # a first derivative, no higher
        with pytest.raises(ValueError):
            theta_chars(((0.5, 0.5),), 0.1, 1j, orders)


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

    def test_one_kernel_pass(self, kernel_passes):
        self._theta2(0.1 + 0.2j, 0.3, 1j)
        assert kernel_passes == [((0.0, 0.0), (-self.R1, self.R2))]

    @pytest.mark.parametrize("tau", TAUS)
    def test_shift_by_tau_r2(self, tau):
        rng = np.random.default_rng(41)
        for _ in range(10):
            z, w = rand_z(rng), rand_z(rng)
            lhs = self._theta2(z + tau, w + self.R2, tau)
            rhs = e_func(-0.5 * tau - z) * self._theta2(z, w, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
