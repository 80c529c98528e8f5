"""Third-kind differential: pole structure, local data, period normalization."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from nodal_theta.abel_jacobi import chart_g
from nodal_theta.curve import derive_periods
from nodal_theta.differentials import (
    eta_coeff,
    h1_at_p2,
    h_at_p1,
    odd_chars,
    period_integral,
    third_kind,
)
from nodal_theta.errors import PoleAt, QuadratureFailure
from nodal_theta.quadrature import (
    integrate_circle,
    integrate_polyline,
    integrate_segment,
    track_log_sampled,
)
from oracles import track_log, winding_number

TWO_PI_I = 2j * math.pi


def ell_mpmath(x, tau, n_max=30):
    """theta11'/theta11 at x by termwise sums at 40 digits."""
    with mpmath.workdps(40):
        x, tau = mpmath.mpc(x.real, x.imag), mpmath.mpc(tau.real, tau.imag)
        th = dth = mpmath.mpc(0)
        for n in range(-n_max, n_max + 1):
            na = n + mpmath.mpf(0.5)
            term = mpmath.exp(2j * mpmath.pi * (na * na * tau / 2 + na * (x + mpmath.mpf(0.5))))
            th += term
            dth += 2j * mpmath.pi * na * term
        return dth / th


class TestQuadratureEngine:
    def test_polynomial_exact(self):
        got = integrate_segment(lambda z: z * z, 0.0, 1.0 + 1j)
        want = (1.0 + 1j) ** 3 / 3.0
        assert abs(got - want) < 1e-14

    def test_residue_on_circle(self):
        got = integrate_circle(lambda z: 1.0 / (z - 0.3j), 0.3j, 0.25)
        assert abs(got - TWO_PI_I) < 1e-12

    def test_polyline_additivity(self):
        f = lambda z: np.exp(z)
        a, b, c = 0.0, 0.7 + 0.2j, 1.0 + 1j
        whole = integrate_polyline(f, [a, b, c])
        assert abs(whole - (np.exp(c) - np.exp(a))) < 1e-12

    def test_budget_exhaustion_raises(self):
        # pole almost on the segment defeats the refinement budget
        with pytest.raises(QuadratureFailure):
            integrate_segment(lambda z: 1.0 / (z - (0.5 + 1e-14j)), 0.0, 1.0, tol=1e-13)

    def test_track_log_full_turn(self):
        f = lambda z: z
        # follow the unit circle via its parametrization as four segments in u
        total = 0.0 + 0.0j
        pts = [cmath.exp(2j * math.pi * k / 4) for k in range(5)]
        # track along chords of the circle; chords avoid the origin
        cur = f(pts[0])
        for k in range(4):
            d, cur = track_log(f, pts[k], pts[k + 1], f_a=cur)
            total += d
        assert abs(total - TWO_PI_I) < 1e-12

    def test_winding_number_square(self):
        sq = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
        assert winding_number(lambda z: z, sq) == 1
        assert winding_number(lambda z: z - (5 + 5j), sq) == 0
        assert winding_number(lambda z: (z - 0.1) ** 2, sq) == 2


class TestEtaCoeff:
    def test_simple_pole_at_p1(self, spec_ab):
        # t * eta(p1 + t) -> 1/(2 pi i): modulus 1/(2 pi) along 8 rays
        spec = spec_ab
        r = 1e-4
        for k in range(8):
            t = r * cmath.exp(2j * math.pi * k / 8)
            val = t * eta_coeff(spec, spec.p1 + t)
            assert abs(abs(val) - 1.0 / (2 * math.pi)) < 1e-4

    def test_simple_pole_at_p2_with_sign(self, spec_a):
        t = 1e-5
        val = t * eta_coeff(spec_a, spec_a.p2 + t)
        assert abs(val - (-1.0 / TWO_PI_I)) < 1e-4

    def test_lattice_periodicity(self, spec_ab):
        spec = spec_ab
        rng = np.random.default_rng(4)
        for _ in range(6):
            z = spec.point(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            if min(abs(z - spec.p1), abs(z - spec.p2)) < 0.1:
                continue
            base = eta_coeff(spec, z)
            assert abs(eta_coeff(spec, z + 1) - base) < 1e-10
            assert abs(eta_coeff(spec, z + spec.tau) - base) < 1e-10

    def test_pole_raises(self, spec_a):
        with pytest.raises(PoleAt):
            eta_coeff(spec_a, spec_a.p1)

    def test_vectorized_matches_scalar(self, spec_a):
        # bit for bit, inside and outside the Laurent switch of ell
        near = np.exp(2j * np.pi * np.arange(8) / 8)
        zs = np.concatenate(
            [[0.2 + 0.7j, 0.9 + 0.1j, 0.6 + 0.85j], spec_a.p1 + 0.005 * near, spec_a.p2 + 0.02 * near]
        )
        vec = eta_coeff(spec_a, zs)
        scal = [eta_coeff(spec_a, complex(z)) for z in zs]
        assert all(type(v) is complex for v in scal)
        assert np.array_equal(vec, np.array(scal))

    def test_one_kernel_pass(self, spec_a, kernel_passes):
        # theta11 at z - p1 and at z - p2 as characteristics at z, each with
        # its derivative
        zs = np.array([0.2 + 0.7j, 0.9 + 0.1j, 0.6 + 0.85j, spec_a.p1 + 0.005])
        eta_coeff(spec_a, zs)  # warm-up: the spec's differential
        kernel_passes.clear()
        eta_coeff(spec_a, zs)
        assert kernel_passes == [odd_chars(spec_a)]

    def test_matches_mpmath_just_outside_the_laurent_switch(self, spec_ab):
        # |z - p_i| in [1e-2, 3e-2]: ell is theta'/theta there, read at z
        # with the pole's shift folded into the characteristic
        spec = spec_ab
        kappa = derive_periods(spec)[2]
        rng = np.random.default_rng(71)
        r = rng.uniform(1e-2, 3e-2, 12) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 12))
        zs = np.concatenate([spec.p1 + r[:6], spec.p2 + r[6:]])
        worst = 0.0
        for z, got in zip(zs, eta_coeff(spec, zs)):
            with mpmath.workdps(40):
                want = (ell_mpmath(z - spec.p1, spec.tau) - ell_mpmath(z - spec.p2, spec.tau)) / (2j * mpmath.pi)
                want = complex(want + kappa)
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-12


class TestLocalData:
    def test_h_continuity_at_origin(self, spec_ab):
        # Richardson-style check along t = 10^-k: h extends continuously to 0
        spec = spec_ab
        h0 = h_at_p1(spec, 0.0)
        assert np.isfinite(h0).all()
        h3v = h_at_p1(spec, 1e-3)
        assert abs(h3v - h0) < 1e-2 * abs(h0) + 1e-6

    def test_h1_continuity_at_origin(self, spec_ab):
        spec = spec_ab
        h0 = h1_at_p2(spec, 0.0)
        assert np.isfinite(h0).all()
        for k in (3, 4, 5):
            assert abs(h1_at_p2(spec, 10.0**-k) - h0) < 10.0 ** (-k + 1) + 1e-9

    def test_h_equals_eta_minus_pole_at_half_delta(self, spec_ab):
        spec = spec_ab
        t = spec.delta / 2
        direct = eta_coeff(spec, spec.p1 + t) - 1.0 / (TWO_PI_I * t)
        assert abs(h_at_p1(spec, t) - direct) < 1e-12

    def test_h1_equals_eta_plus_pole_at_half_eps(self, spec_ab):
        spec = spec_ab
        t = spec.eps / 2 * cmath.exp(0.7j)
        direct = eta_coeff(spec, spec.p2 + t) + 1.0 / (TWO_PI_I * t)
        assert abs(h1_at_p2(spec, t) - direct) < 1e-12

    def test_h1_primitive_matches_quadrature(self, spec_ab):
        # 2 pi i times the primitive of h1 is the log change of g(t) = t e(phi2(p2 + t))
        spec = spec_ab
        diff = third_kind(spec)
        for t in (spec.eps / 2, spec.eps * cmath.exp(2.1j) / 3, spec.eps * cmath.exp(-0.8j)):
            d_log_g, _ = track_log_sampled(lambda s: chart_g(spec, s), spec.eps / 2, t)
            quad = integrate_segment(diff.h1_at_p2, spec.eps / 2, t, 1e-12)
            assert abs(d_log_g / TWO_PI_I - quad) < 1e-10


class TestPeriodNormalization:
    def test_gamma1_period_is_one(self, spec_ab):
        assert abs(period_integral(spec_ab, "gamma1") - 1.0) < 1e-8

    def test_gamma2_period_is_minus_one(self, spec_ab):
        assert abs(period_integral(spec_ab, "gamma2") + 1.0) < 1e-8

    def test_cut_periods_real_and_match_closed_form(self, spec_ab):
        r1, r2, _ = derive_periods(spec_ab)
        va = period_integral(spec_ab, "alpha")
        vb = period_integral(spec_ab, "beta")
        assert abs(va.imag) < 1e-8 and abs(vb.imag) < 1e-8
        assert abs(va - r1) < 1e-8
        assert abs(vb - r2) < 1e-8

    def test_alpha_period_path_independent(self, spec_a):
        # homotopic bent path for the alpha cycle
        spec = spec_a
        diff = third_kind(spec)
        bent = [spec.q0, spec.q0 + 0.5 + 0.04j, spec.q0 + 1.0]
        direct = integrate_polyline(diff.eta_coeff, [spec.q0, spec.q0 + 1.0], 1e-11)
        detour = integrate_polyline(diff.eta_coeff, bent, 1e-11)
        assert abs(direct - detour) < 1e-9
