"""Third-kind differential: pole structure, local data, period normalization."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from nodal_theta.abel_jacobi import chart_g
from nodal_theta.curve import NodalCurveSpec, derive_periods
from nodal_theta.differentials import (
    _ELL_SWITCH,
    ThirdKindDifferential,
    _odd_taylor,
    odd_chars,
    period_integral,
    third_kind,
)
from nodal_theta.errors import NonConvergent, PoleAt, QuadratureFailure
from nodal_theta.quadrature import (
    integrate_circle,
    integrate_polyline,
    integrate_segment,
    track_log_sampled,
)
from nodal_theta.theta import theta_chars
from oracles import theta_mpmath, track_log, winding_number

TWO_PI_I = 2j * math.pi
# the lattices of tests/test_theta.py (those of the presets too) and two more
TAUS = [1j, 0.3 + 0.8j, 0.1 + 0.6j, 1.4j]


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
            val = t * third_kind(spec).eta_coeff(spec.p1 + t)
            assert abs(abs(val) - 1.0 / (2 * math.pi)) < 1e-4

    def test_simple_pole_at_p2_with_sign(self, spec_a):
        t = 1e-5
        val = t * third_kind(spec_a).eta_coeff(spec_a.p2 + t)
        assert abs(val - (-1.0 / TWO_PI_I)) < 1e-4

    def test_lattice_periodicity(self, spec_ab):
        spec = spec_ab
        rng = np.random.default_rng(4)
        for _ in range(6):
            z = spec.point(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            if min(abs(z - spec.p1), abs(z - spec.p2)) < 0.1:
                continue
            base = third_kind(spec).eta_coeff(z)
            assert abs(third_kind(spec).eta_coeff(z + 1) - base) < 1e-10
            assert abs(third_kind(spec).eta_coeff(z + spec.tau) - base) < 1e-10

    def test_pole_raises(self, spec_a):
        with pytest.raises(PoleAt):
            third_kind(spec_a).eta_coeff(spec_a.p1)

    @pytest.mark.bitwise
    def test_vectorized_matches_scalar(self, spec_a):
        # bit for bit, inside and outside the Laurent switch of ell
        near = np.exp(2j * np.pi * np.arange(8) / 8)
        zs = np.concatenate(
            [[0.2 + 0.7j, 0.9 + 0.1j, 0.6 + 0.85j], spec_a.p1 + 0.005 * near, spec_a.p2 + 0.02 * near]
        )
        vec = third_kind(spec_a).eta_coeff(zs)
        scal = [third_kind(spec_a).eta_coeff(complex(z)) for z in zs]
        assert all(type(v) is complex for v in scal)
        assert np.array_equal(vec, np.array(scal))

    def test_one_kernel_pass(self, spec_a, kernel_passes):
        # theta11 at z - p1 and at z - p2 as characteristics at z, each with
        # its derivative
        zs = np.array([0.2 + 0.7j, 0.9 + 0.1j, 0.6 + 0.85j, spec_a.p1 + 0.005])
        third_kind(spec_a).eta_coeff(zs)  # warm-up: the spec's differential
        kernel_passes.clear()
        third_kind(spec_a).eta_coeff(zs)
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
        for z, got in zip(zs, third_kind(spec).eta_coeff(zs)):
            with mpmath.workdps(40):
                want = (ell_mpmath(z - spec.p1, spec.tau) - ell_mpmath(z - spec.p2, spec.tau)) / (2j * mpmath.pi)
                want = complex(want + kappa)
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-12


class TestTaylorData:
    """theta11's Taylor data at 0, theta11(t)/t = a1 + a3 t^2 + ... + a9 t^8
    + O(t^10), summed from their own series, against a termwise 40-digit
    oracle and Jacobi's theta11'(0) = -2 pi eta(tau)^3."""

    @pytest.fixture(params=["a", "b", *TAUS])
    def diff(self, request, presets):
        p = request.param
        if isinstance(p, str):
            return third_kind(presets[p].spec)
        return ThirdKindDifferential(NodalCurveSpec(tau=p, p1=0.25 + 0.5 * p, p2=0.75 + 0.5 * p, z0=0.5 + 0.25 * p))

    def test_matches_mpmath(self, diff):
        for j, got in enumerate(diff._odd_over_t_coeffs):
            k = 2 * j + 1
            want = theta_mpmath((0.5, 0.5), 0j, diff.tau, k) / math.factorial(k)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_a1_is_minus_two_pi_eta_cubed(self, diff):
        with mpmath.workdps(40):
            tau = mpmath.mpc(diff.tau.real, diff.tau.imag)
            eta = mpmath.exp(2j * mpmath.pi * tau / 24) * mpmath.qp(mpmath.exp(2j * mpmath.pi * tau))
            want = complex(-2 * mpmath.pi * eta**3)
        assert abs(diff._odd_over_t_coeffs[0] - want) <= 1e-14 * abs(want)

    def test_ell_reg_is_the_log_derivative_of_the_series(self, diff):
        # below _ELL_SWITCH, ell(t) - 1/t = o'(t)/o(t), o(t) = theta11(t)/t
        # from the Taylor data: against the 40-digit oracle, and at the switch
        # against the kernel's theta11'/theta11 - 1/t
        t = 0.99 * _ELL_SWITCH * np.exp(2j * np.pi * np.arange(8) / 8)
        for got, x in zip(diff._odd_series(t)[1], t):
            with mpmath.workdps(40):
                want = complex(ell_mpmath(x, diff.tau) - 1 / mpmath.mpc(x.real, x.imag))
            assert abs(got - want) <= 1e-15
        t = t / 0.99
        ((th, thp),) = theta_chars(((0.5, 0.5),), t, diff.tau, (0, 1))
        assert np.max(np.abs(diff._odd_series(t)[1] - (thp / th - 1 / t))) <= 1e-12

    def test_no_kernel_pass(self, spec_b, kernel_passes):
        ThirdKindDifferential(spec_b)
        assert kernel_passes == []

    # theta11^(k)(0), k = 1, 3, 5, 7, as _odd_taylor gave them before it
    # guarded a1 against cancellation (TAUS[:2] are the presets' lattices)
    UNGUARDED = {
        1j: (-2.8486946039877874, 26.84831412062675, -152.42711321643978, -8492.614863611712),
        0.3 + 0.8j: (
            -3.2938681156615206 - 0.7262494351076557j,
            35.23227651408711 + 2.7253588043771066j,
            -589.7756326905354 + 367.7753133943375j,
            27361.39499038338 - 38703.96250288773j,
        ),
        0.1 + 0.6j: (
            -3.7036891287991187 - 0.1317775562274075j,
            20.2456465825066 - 12.5568230633417j,
            1252.2307189976523 + 1346.5313010266623j,
            -142187.6141317956 - 119839.8149511932j,
        ),
        1.4j: (-2.0914669956885024, 20.566978795992835, -196.32835497625433, 1346.1359090393685),
    }

    @pytest.mark.parametrize("tau", TAUS)
    def test_guard_keeps_the_values(self, tau):
        for got, want in zip(_odd_taylor(tau), self.UNGUARDED[tau]):
            assert abs(got - want) <= 2 * np.finfo(np.float64).eps * abs(want)

    def test_nonconvergent_where_a1_is_lost_in_rounding(self):
        # at tau = 0.01i, a1 = -2 pi eta^3 is about 1e-29 while its terms
        # reach about 10: the sum misses a1 by 26 times its size
        with pytest.raises(NonConvergent, match="rounding"):
            _odd_taylor(0.01j)
        h = 0.005
        spec = NodalCurveSpec(tau=2j * h, p1=0.25 + 1j * h, p2=0.75 + 1j * h, z0=0.5 + 0.5j * h, delta=1e-4, eps=1e-4)
        with pytest.raises(NonConvergent):
            ThirdKindDifferential(spec)

    def test_nonconvergent_for_tiny_im_tau(self):
        h = 5e-4
        spec = NodalCurveSpec(tau=2j * h, p1=0.25 + 1j * h, p2=0.75 + 1j * h, z0=0.5 + 0.5j * h, delta=1e-4, eps=1e-4)
        with pytest.raises(NonConvergent):
            ThirdKindDifferential(spec)


class TestLocalData:
    def test_h_continuity_at_origin(self, spec_ab):
        # Richardson-style check along t = 10^-k: h extends continuously to 0
        spec = spec_ab
        h0 = third_kind(spec).h_at_p1(0.0)
        assert np.isfinite(h0).all()
        h3v = third_kind(spec).h_at_p1(1e-3)
        assert abs(h3v - h0) < 1e-2 * abs(h0) + 1e-6

    def test_h1_continuity_at_origin(self, spec_ab):
        spec = spec_ab
        h0 = third_kind(spec).h1_at_p2(0.0)
        assert np.isfinite(h0).all()
        for k in (3, 4, 5):
            assert abs(third_kind(spec).h1_at_p2(10.0**-k) - h0) < 10.0 ** (-k + 1) + 1e-9

    def test_h_equals_eta_minus_pole_at_half_delta(self, spec_ab):
        spec = spec_ab
        t = spec.delta / 2
        direct = third_kind(spec).eta_coeff(spec.p1 + t) - 1.0 / (TWO_PI_I * t)
        assert abs(third_kind(spec).h_at_p1(t) - direct) < 1e-12

    def test_h1_equals_eta_plus_pole_at_half_eps(self, spec_ab):
        spec = spec_ab
        t = spec.eps / 2 * cmath.exp(0.7j)
        direct = third_kind(spec).eta_coeff(spec.p2 + t) + 1.0 / (TWO_PI_I * t)
        assert abs(third_kind(spec).h1_at_p2(t) - direct) < 1e-12

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
