"""Pullback zeros, Laurent data, Riemann constants and the inversion
congruence.

Independent oracles used here:
  - mean-value sampling of T'/T + 1/t over chart circles (holomorphic h3);
  - Richardson extrapolation of t * T(p2 + t) for the residue;
  - continued-log tracking of T along explicit contours;
  - finite differences for every analytic derivative.
"""

import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodal_theta import inversion, theta
from nodal_theta.abel_jacobi import divisor_image, e_phi2, phi1, phi2
from nodal_theta.curve import NodalCurveSpec, derive_periods, lattice_coords, mod_gamma_decompose, period_group
from nodal_theta.branches import beta_k
from nodal_theta.errors import ContourThroughZero, DegenerateC, NoPreimage, ZeroCollision
from nodal_theta.quadrature import winding_number_sampled
from nodal_theta.inversion import (
    THM51_SKIPS,
    DMap,
    ThetaPullback,
    alpha_dlog_integral,
    beta_dlog_integral,
    branch_correction,
    branch_correction_tracked,
    count_zeros,
    d_map,
    d_map_corrected,
    genericity_failure,
    jacobian_consistency_check,
    kappa_vector,
    locate_zeros,
    riemann_constants,
    sample_generic_c,
    verify_thm51,
)
from nodal_theta.theta import TWO_PI_I, e_func, theta_char

EPS_W = 0.03  # working radius used throughout (half the U2 radius)


def generic_tp(spec, seed=101):
    rng = np.random.default_rng(seed)
    c, _ = sample_generic_c(spec, rng)
    return ThetaPullback(c, spec)


def chart(tp):
    """The node chart of tp's c1 at the working radius."""
    return DMap(tp.spec, tp.c1, EPS_W)


def h3_direct(tp, t):
    """Independent route: T'/T + 1/t straight from the pullback."""
    T, dT = tp.value_and_dvalue(tp.spec.p2 + t)
    return dT / T + 1.0 / t


def h3_zero_oracle(tp, radius):
    """h3(0) by the mean-value property on a chart circle (h3 holomorphic)."""
    u = np.arange(32) / 32
    ts = radius * np.exp(2j * np.pi * u)
    vals = [h3_direct(tp, t) for t in ts]
    return sum(vals) / len(vals)


class TestPullback:
    def test_dual_route_evaluation(self, spec_ab):
        # branch-free quotient formula vs tracked period map
        tp = generic_tp(spec_ab)
        rng = np.random.default_rng(3)
        for _ in range(8):
            P = spec_ab.point(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            if min(abs(P - spec_ab.p1), abs(P - spec_ab.p2)) < 0.12:
                continue
            a = tp.value(P)
            b = tp.value_from_phi(P)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_alpha_cut_automorphy(self, spec_ab):
        # value at the partner point on the top edge picks up the theta factor
        spec = spec_ab
        tp = generic_tp(spec)
        for s in np.linspace(0.025, 0.975, 20):
            P = spec.q0 + s
            lhs = tp.value(P + spec.tau)
            rhs = e_func(-0.5 * spec.tau - (phi1(spec, P) - tp.c1)) * tp.value(P)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_beta_cut_automorphy(self, spec_ab):
        spec = spec_ab
        tp = generic_tp(spec)
        for t in np.linspace(0.025, 0.975, 20):
            P = spec.q0 + 1 + t * spec.tau
            lhs = tp.value(P - 1)
            rhs = tp.value(P)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_simple_pole_at_p2(self, spec_a):
        tp = generic_tp(spec_a)
        dm = chart(tp)
        for k in range(8):
            t = 1e-5 * cmath.exp(2j * math.pi * k / 8)
            assert abs(t * tp.value(spec_a.p2 + t) - dm.c_minus1(tp.c2)) < 1e-4

    def test_finite_at_p1(self, spec_a):
        tp = generic_tp(spec_a)
        # e(phi2) -> 0 there, so the pullback approaches theta00(phi1(p1)-c1)
        lim = theta_char((0.0, 0.0), phi1(spec_a, spec_a.p1) - tp.c1, spec_a.tau)
        assert abs(tp.value(spec_a.p1 + 1e-7) - lim) < 1e-5
        assert abs(lim) > 1e-3

    def test_genericity_guard(self, spec_a):
        # c1 exactly on a zero of each theta00 guard in turn: that guard trips
        spec = spec_a
        zero_of_theta = 0.5 + 0.5 * spec.tau  # theta00 vanishes at (1+tau)/2
        for name, point in (("theta00(phi1(p1) - c1)", spec.p1), ("theta00(phi1(p2) - c1)", spec.p2)):
            c1_bad = phi1(spec, point) - zero_of_theta
            assert genericity_failure(spec, c1_bad) == name
            with pytest.raises(DegenerateC, match=re.escape(name)):
                ThetaPullback((c1_bad, 0.1), spec)

    def test_residue_theta_is_a_multiple_of_the_p1_theta(self, spec_ab):
        """Why the guards need no theta[-r1;r2](phi1(p2) - c1) of their own.

        With r2 - r1 tau = p1 - p2 and the characteristic shift
        theta[a;b](z) = e(a^2 tau/2 + a(z + b)) theta00(z + a tau + b),
        theta[-r1;r2](x2) = e(r1^2 tau/2 - r1 (x2 + r2)) theta00(x1) for
        x_i = phi1(p_i) - c1: it vanishes exactly where the p1 guard's theta does.
        """
        spec = spec_ab
        r1, r2, _ = derive_periods(spec)
        rng = np.random.default_rng(23)
        for _ in range(24):
            (c1, _), _ = sample_generic_c(spec, rng)
            x1 = phi1(spec, spec.p1) - c1
            x2 = phi1(spec, spec.p2) - c1
            lhs = theta_char((-r1, r2), x2, spec.tau)
            rhs = e_func(0.5 * r1 * r1 * spec.tau - r1 * (x2 + r2)) * theta_char((0.0, 0.0), x1, spec.tau)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestValueAndDerivative:
    """ThetaPullback.value_and_dvalue, on the line q0 where the zero moments
    are taken."""

    @staticmethod
    def moment_line(spec, n=64):
        return spec.q0 + np.arange(n) / n

    def test_value_is_value_bit_for_bit(self, spec_ab):
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab)
        T, dT = tp.value_and_dvalue(z)
        assert np.array_equal(T, tp.value(z))
        T, dT = tp.value_and_dvalue(complex(z[5]))
        assert type(T) is complex and type(dT) is complex
        assert T == tp.value(complex(z[5]))

    def test_derivative_matches_richardson_difference(self, spec_ab):
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab)
        _, dT = tp.value_and_dvalue(z)
        h = 1e-3
        d1 = (tp.value(z + h) - tp.value(z - h)) / (2 * h)
        d2 = (tp.value(z + h / 2) - tp.value(z - h / 2)) / h
        fd = (4 * d2 - d1) / 3.0
        assert np.max(np.abs(dT - fd) / np.abs(dT)) < 1e-8

    def test_five_kernel_passes(self, spec_ab, monkeypatch):
        # e(phi2) (2), theta00 with theta00' (1), theta_r with theta_r' (1), eta (1)
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab, 32)
        tp.value_and_dvalue(z)  # warm-up: per-spec caches
        calls = []
        kernel = theta._theta_general

        def counted(*args):
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(theta, "_theta_general", counted)
        tp.value_and_dvalue(z)
        assert len(calls) == 5

    def test_batched_polish_confirms_both_zeros(self, spec_ab, monkeypatch):
        tp = generic_tp(spec_ab)
        w = inversion._moment_roots(tp, spec_ab.q0)
        starts = np.array([cmath.log(x) / TWO_PI_I for x in w])
        for z in (starts, starts + np.array([1e-3, -1e-3j])):
            polished = inversion._newton_polish(tp, z)
            assert polished.shape == (2,)
            assert np.all(np.abs(tp.value(polished)) < 1e-10)
        monkeypatch.setattr(inversion, "_POLISH_MAX_ITER", 1)
        with pytest.raises(ZeroCollision, match="did not converge"):
            inversion._newton_polish(tp, starts + np.array([1e-3, -1e-3j]))


def zero_sum_gap(tp, q1, q2):
    """Distance from the exact zero-sum identity, not taken mod Z,

        q1 + q2 - p2 = beta - tau*alpha + q0 + 1/2 + tau,

    the argument principle for z T'/T on the cell: the edge pairs leave the
    continued-log integrals alpha (bottom edge) and beta (left edge)."""
    spec = tp.spec
    alpha, beta = alpha_dlog_integral(tp), beta_dlog_integral(tp)
    return abs(q1 + q2 - spec.p2 - (beta - spec.tau * alpha + spec.q0 + 0.5 + spec.tau))


# Draws whose zeros lie within 2.5e-4 of the line q0 (mod the lattice), so
# the moments on that line do not converge and locate_zeros falls back to
# the line q0 + tau/2.  The pinned zeros were computed by winding
# subdivision, an independent route.
NEAR_LINE_DRAWS = [
    ("a", (0.8474218384649422 + 0.4304966800962695j, 0.7728644192522546 - 0.14705818645847346j),
     (0.44702482843066316 + 0.46063799909722064j, 0.49039701003427916 + 0.9998586809990488j)),
    ("b", (0.7238874568652329 + 0.0889162996613818j, 0.560502032891158 + 0.09183643140921455j),
     (0.6934901689102555 + 0.00017024843053787457j, 0.21939728795497757 + 0.5517460512308439j)),
    ("b", (0.44131917995703573 + 0.02188318623608181j, 0.6922281921727766 - 0.017569076686295815j),
     (0.6184434425010262 + 0.4851021453245716j, 0.31187573745600955 + 0.79978104091151j)),
    ("b", (0.950287911138926 + 0.6133879538812215j, 0.45384229501607465 - 0.08752128911715656j),
     (0.2772803223151462 + 0.00014992326886921638j, 0.5620075888237799 + 0.27623803061235225j)),
]


class TestZeroCounting:
    def test_two_zeros_many_c_both_configs(self, spec_ab):
        rng = np.random.default_rng(23)
        done = 0
        while done < 20:
            c, _ = sample_generic_c(spec_ab, rng)
            try:
                tp = ThetaPullback(c, spec_ab)
                assert count_zeros(tp) == 2
                done += 1
            except (ContourThroughZero, DegenerateC):
                continue

    def test_zero_on_the_cell_edge(self, spec_b):
        # a zero at lattice coordinate s = 0.99995 on the edge [1, 1 + tau]
        # stops the boundary walk; the cell translated by (1 + tau)/2 counts it
        tp = ThetaPullback((0.65209 + 0.61911j, 0.84486 - 0.01886j), spec_b)
        with pytest.raises(ContourThroughZero):
            winding_number_sampled(tp.value, spec_b.corners)
        assert count_zeros(tp) == 2

    def test_alpha_dlog_is_exact_integer(self, spec_ab):
        # the pullback takes equal values at the ends of the bottom edge, so
        # the continued-log integral is an exact integer; its branch-free
        # content (exponential = 1) always holds, while the integer itself
        # depends on c through zeros near the edge
        rng = np.random.default_rng(29)
        seen = []
        for _ in range(8):
            c, _ = sample_generic_c(spec_ab, rng)
            tp = ThetaPullback(c, spec_ab)
            val = alpha_dlog_integral(tp)
            assert abs(val - round(val.real)) < 1e-8
            assert abs(e_func(val) - 1.0) < 1e-8
            seen.append(round(val.real))
        assert len(seen) == 8

    def test_beta_dlog_value(self, spec_ab):
        # continued-log integral along the left edge equals
        # -tau/2 - (phi1(Q0) - c1) up to the documented integer from the
        # lattice representative of c1
        spec = spec_ab
        rng = np.random.default_rng(31)
        for _ in range(5):
            c, _ = sample_generic_c(spec, rng)
            tp = ThetaPullback(c, spec)
            got = beta_dlog_integral(tp)
            want = -0.5 * spec.tau - (phi1(spec, spec.q0) - tp.c1)
            diff = got - want
            assert abs(diff - round(diff.real)) < 1e-8
            # branch-free exponentiated form is exact
            assert abs(e_func(got) - e_func(want)) < 1e-8 * max(1.0, abs(e_func(want)))

    def test_located_zeros_are_zeros(self, spec_ab):
        rng = np.random.default_rng(37)
        done = 0
        while done < 3:
            c, _ = sample_generic_c(spec_ab, rng)
            try:
                tp = ThetaPullback(c, spec_ab)
                q1, q2 = locate_zeros(tp)
            except THM51_SKIPS:
                continue
            done += 1
            scale = max(1.0, abs(tp.value(spec_ab.z0)))
            assert abs(tp.value(q1)) < 1e-9 * scale
            assert abs(tp.value(q2)) < 1e-9 * scale
            assert abs(q1 - q2) > 1e-3
            for q in (q1, q2):
                assert abs(q - spec_ab.p1) > spec_ab.delta
                assert abs(q - spec_ab.p2) > spec_ab.eps
                # each zero is simple and alone in a small box around it
                r = 0.25 * min(abs(q1 - q2), spec_ab.eps)
                square = [q + r * corner for corner in (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)]
                assert winding_number_sampled(tp.value, square) == 1
            assert zero_sum_gap(tp, q1, q2) < 1e-12

    @pytest.mark.parametrize("name, c, zeros", NEAR_LINE_DRAWS)
    def test_zeros_near_the_line_q0(self, spec_a, spec_b, name, c, zeros):
        spec = spec_a if name == "a" else spec_b
        q1, q2 = locate_zeros(ThetaPullback(c, spec))
        assert abs(q1 - zeros[0]) < 1e-13
        assert abs(q2 - zeros[1]) < 1e-13

    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
        q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
        c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_zeros_on_generated_specs(self, tau, q0, coords, c):
        tau, q0 = complex(*tau), complex(*q0)
        p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
        try:
            spec = NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
        except ValueError:
            assume(False)
        try:
            tp = ThetaPullback((c[0] + c[1] * tau, complex(c[2], c[3])), spec)
            q1, q2 = locate_zeros(tp)
            gap = zero_sum_gap(tp, q1, q2)
        except THM51_SKIPS:
            assume(False)
        scale = max(1.0, abs(tp.value(spec.z0)))
        for q in (q1, q2):
            assert abs(tp.value(q)) < 1e-9 * scale
            s, t = lattice_coords(q, spec.q0, spec.tau)
            assert 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0
        assert abs(q1 - q2) > 1e-6
        assert gap < 1e-12

    def test_divisor_image_path_invariant_mod_gamma(self, spec_a):
        from nodal_theta.abel_jacobi import trace_path

        spec = spec_a
        rng = np.random.default_rng(41)
        while True:
            try:
                c, _ = sample_generic_c(spec, rng)
                tp = ThetaPullback(c, spec)
                q1, q2 = locate_zeros(tp)
                break
            except THM51_SKIPS:
                continue
        w_default = divisor_image(spec, [q1, q2])
        detour1 = trace_path(spec, (spec.z0, spec.point(0.5, 0.85), q1))
        detour2 = trace_path(spec, (spec.z0, spec.point(0.88, 0.5), q2))
        w_detour = divisor_image(spec, [(q1, detour1), (q2, detour2)])
        pg = period_group(spec)
        diff = (w_default[0] - w_detour[0], w_default[1] - w_detour[1])
        assert mod_gamma_decompose(diff, pg).residual_norm < 1e-8


class TestLaurentData:
    def test_residue_against_limit(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        # Richardson in t: t*T = c_minus1 + h2(0) t + O(t^2)
        t = 1e-5
        v1 = t * tp.value(spec_ab.p2 + t)
        v2 = (t / 2) * tp.value(spec_ab.p2 + t / 2)
        extrap = 2 * v2 - v1
        assert abs(extrap - dm.c_minus1(tp.c2)) < 1e-8

    def test_h3_matches_pullback_log_derivative(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        for k in range(8):
            t = (EPS_W / 2) * cmath.exp(2j * math.pi * k / 8)
            assert abs(dm.h3(t, tp.c2) - h3_direct(tp, t)) < 1e-8

    def test_h3_zero_closed_form_vs_oracle(self, spec_ab):
        # definition-consistent closed form agrees with the mean-value oracle
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        assert abs(dm.h3_zero(tp.c2) - oracle) < 1e-8

    def test_h3_zero_short_form_misses_by_the_defect(self, spec_ab):
        # the shorter display formula theta00 e(c2) / (theta_r g0) deviates
        # from the true limit by exactly theta_r'/theta_r + 2*pi*i*h1(0)
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        gap = oracle - dm.h3_zero_no_derivative(tp.c2)
        assert abs(gap) > 1e-3
        assert abs(gap - dm.h3_zero_defect) < 1e-8

    def test_h2_is_pullback_minus_pole(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        for t in (EPS_W / 2, EPS_W / 3 * cmath.exp(1.2j)):
            direct = tp.value(spec_ab.p2 + t) - dm.c_minus1(tp.c2) / t
            assert abs(dm.h2(t, tp.c2) - direct) < 1e-9

    def test_h2_prime_finite_difference(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        t, h = EPS_W / 2, 1e-6
        fd = (dm.h2(t + h, tp.c2) - dm.h2(t - h, tp.c2)) / (2 * h)
        assert abs(dm.h2_prime(t, tp.c2) - fd) < 1e-6 * max(1.0, abs(fd))


class TestGFunction:
    def test_g_over_t_equals_e_phi2(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        for k in range(8):
            t = (EPS_W / 2) * cmath.exp(2j * math.pi * k / 8)
            lhs = dm.g(t) / t
            rhs = e_phi2(spec_ab, spec_ab.p2 + t)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_g_finite_nonzero_at_origin(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        assert abs(dm.g0) > 1e-6
        assert np.isfinite(dm.g0)

    def test_g_lipschitz_near_origin(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        ts = np.array([1e-3, 1e-4, 1e-5])
        for t in ts:
            assert abs(dm.g(t) - dm.g0) < 10.0 * abs(dm.g0) * t


class TestMobius:
    def test_reconstruction_identity(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        rng = np.random.default_rng(43)
        for _ in range(6):
            t = rng.uniform(0.1, 1.0) * EPS_W * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            A, B, C, D = dm.mobius_coeffs(t)
            ec = e_func(-tp.c2)
            recon = (A + B * ec) / (C + D * ec)
            assert abs(recon - dm.h3(t, tp.c2)) < 1e-10 * max(1.0, abs(dm.h3(t, tp.c2)))

    def test_c_and_b_at_origin(self, spec_ab):
        # C(0) = 0 exactly; B(0) equals the derivative of theta_r(phi1-c1) g
        # at the node (nonzero), the same coefficient behind the h3(0) defect
        spec = spec_ab
        tp = generic_tp(spec)
        dm = chart(tp)
        A, B, C, D = dm.mobius_coeffs(0.0)
        assert C == 0
        assert abs(B) > 1e-6
        h = 1e-6
        x2 = phi1(spec, spec.p2) - tp.c1

        def G(t):
            return theta_char((-tp.r1, tp.r2), x2 + t, spec.tau) * dm.g(t)

        fd = (G(h) - G(-h)) / (2 * h)
        assert abs(B - fd) < 1e-6 * max(1.0, abs(B))

    def test_determinant_at_origin_is_diagonal_product(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        A, B, C, D = dm.mobius_coeffs(0.0)
        # det(0) = A(0) D(0) because C(0) = 0
        want = theta_char((0.0, 0.0), phi1(tp.spec, tp.spec.p2) - tp.c1, tp.spec.tau) * dm.beta_coeff
        assert abs(A * D - B * C - want) < 1e-10 * abs(want)

    def test_determinant_bounded_below_on_chart(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        dets, scales = [], []
        for rho in (EPS_W, 0.75 * EPS_W, 0.5 * EPS_W, 0.25 * EPS_W, 1e-3 * EPS_W):
            A, B, C, D = dm.mobius_coeffs(rho * angles)
            dets.append(np.min(np.abs(A * D - B * C)))
            scales.append(np.max(np.abs(A * D) + np.abs(B * C)))
        assert min(dets) > 1e-6 * max(scales)


class TestH3Map:
    def test_h3_integral_zero_at_origin(self, spec_a):
        tp = generic_tp(spec_a)
        dm = chart(tp)
        assert dm.H3(tp.c2, 0.0) == 0

    def test_fundamental_theorem(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        t, h = 0.6 * EPS_W, 1e-6
        fd = (dm.H3(tp.c2, t + h) - dm.H3(tp.c2, t - h)) / (2 * h)
        assert abs(fd - dm.h3(t, tp.c2)) < 1e-6 * max(1.0, abs(dm.h3(t, tp.c2)))

    def test_integer_period_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = chart(tp).H3(tp.c2)
        b = chart(tp).H3(tp.c2 + 1.0)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_not_half_periodic_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = chart(tp).h3(0.5 * EPS_W, tp.c2)
        b = chart(tp).h3(0.5 * EPS_W, tp.c2 + 0.5)
        assert abs(a - b) > 1e-4

    def test_jacobian_dual_route(self, spec_ab):
        tp = generic_tp(spec_ab)
        rel = jacobian_consistency_check(chart(tp), tp.c2)
        assert rel < 1e-6


class TestDMap:
    def test_first_component_identity(self, spec_a):
        rng = np.random.default_rng(47)
        c, _ = sample_generic_c(spec_a, rng)
        d = d_map(EPS_W, c, spec_a)
        assert d[0] == c[0]

    def test_integer_shift_invariance(self, spec_ab):
        rng = np.random.default_rng(53)
        c, _ = sample_generic_c(spec_ab, rng)
        a = d_map(EPS_W, c, spec_ab)
        b = d_map(EPS_W, (c[0], c[1] + 1.0), spec_ab)
        assert abs(a[1] - b[1]) < 1e-10 * max(1.0, abs(a[1]))

    def test_corrected_map_matches_quadrature_route(self, spec_ab):
        # closed form vs H3 quadrature plus tracked branch correction, mod 1
        rng = np.random.default_rng(59)
        c, _ = sample_generic_c(spec_ab, rng)
        tp = ThetaPullback(c, spec_ab)
        quad = chart(tp).d2(tp.c2) + branch_correction_tracked(tp, EPS_W)
        closed = d_map_corrected(EPS_W, c, spec_ab)[1]
        diff = quad - closed
        assert abs(diff - round(diff.real)) < 1e-9

    def test_correction_routes_agree_mod_one(self, spec_ab):
        rng = np.random.default_rng(61)
        c, _ = sample_generic_c(spec_ab, rng)
        tp = ThetaPullback(c, spec_ab)
        a = branch_correction(chart(tp), tp.c2)
        b = branch_correction_tracked(tp, EPS_W)
        diff = a - b
        assert abs(diff - round(diff.real)) < 1e-10

    @staticmethod
    def pole_c2(dm, frac=0.37):
        """The c2 that puts a zero of T_c on the chart ray at t = frac * eps."""
        _, _, C, D = dm.mobius_coeffs(np.array([frac * dm.eps + 0j]))
        return complex(-cmath.log(-C[0] / D[0]) / TWO_PI_I)

    def test_closed_form_d2_matches_h3_quadrature(self, spec_ab):
        # d2 = c1 r1 + (Log f(eps) + 2 pi i n)/(2 pi i) against the quadrature
        # of h3, also with a zero of T_c just off the chart ray; at
        # pole_c2 - 0.002 the winding n of f along [0, eps] is 1
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        dm = DMap(spec_ab, c[0], EPS_W)
        pole = self.pole_c2(dm)
        for c2 in (0.0, c[1], 0.3 + 0.1j, 0.77 - 0.2j, pole + 0.05, pole - 0.002):
            assert abs(dm.d2(c2) - (dm.c1 * dm.r1 + dm.H3(c2) / TWO_PI_I)) < 1e-12
        principal = dm.c1 * dm.r1 + np.log(dm.f(dm.eps, pole - 0.002)) / TWO_PI_I
        assert abs(dm.d2(pole - 0.002) - principal - 1) < 1e-12

    def test_zero_on_the_chart_ray_ends_d2_and_the_stated_inverse(self, spec_ab):
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        dm = DMap(spec_ab, c[0], EPS_W)
        c2 = self.pole_c2(dm)
        with pytest.raises(ContourThroughZero):
            dm.d2(c2)
        # a target whose only stated preimage candidate is that c2
        kap = kappa_vector(riemann_constants(spec_ab, EPS_W), spec_ab, "half_tau")
        v = dm.c1 * dm.r1 + np.log(dm.f(dm.eps, c2)) / TWO_PI_I
        with pytest.raises(NoPreimage, match="chart ray"):
            beta_k((dm.c1 + kap[0], v + kap[1]), spec_ab, EPS_W, use_correction=False, _kappa_cache=kap)

    @pytest.mark.parametrize("eps", [0.05, 0.03])
    def test_quadrature_meets_closed_form_at_fine_tolerance(self, spec_a, eps):
        # the integrand of H3 is the exact log-derivative down to t = 0, so
        # the adaptive rule converges at quad_tol = 1e-12 on a draw where an
        # integrand with a switch near t = 1e-3 could not
        rng = np.random.default_rng(19)
        for _ in range(11):
            c, _ = sample_generic_c(spec_a, rng)
        dm = DMap(dataclasses.replace(spec_a, quad_tol=1e-12), c[0], eps)
        assert abs(dm.H3(c[1]) - TWO_PI_I * (dm.d2(c[1]) - dm.c1 * dm.r1)) < 1e-13


class TestRiemannConstants:
    def test_alpha_phi1_integral_closed_form(self, spec_ab):
        rc = riemann_constants(spec_ab, EPS_W)
        want = 0.5 + (spec_ab.q0 - spec_ab.z0)
        assert abs(rc.alpha_phi1_integral - want) < 1e-10

    def test_kappa1_epsilon_free(self, spec_a):
        a = riemann_constants(spec_a, EPS_W)
        b = riemann_constants(spec_a, EPS_W / 2)
        assert a.kappa1 == b.kappa1

    def test_refinement_stability(self, spec_a):
        a = riemann_constants(dataclasses.replace(spec_a, quad_tol=1e-10), EPS_W)
        b = riemann_constants(dataclasses.replace(spec_a, quad_tol=1e-11), EPS_W)
        assert abs(a.kappa2 - b.kappa2) < 1e-9

    def test_computed_once_per_radius(self, spec_a, monkeypatch, thm51_samples):
        # verify_thm51 reads the constants on every sample, and they depend
        # only on (spec, eps): a(eps) is integrated once for the whole batch
        calls = []
        real = inversion.a_eps
        monkeypatch.setattr(inversion, "a_eps", lambda *args: calls.append(args) or real(*args))
        riemann_constants.cache_clear()
        results, _ = thm51_samples(spec_a, 3, np.random.default_rng(71), eps=EPS_W)
        assert len(results) == 3
        assert len(calls) == 1

    def test_variant_vector_shift(self, spec_a):
        rc = riemann_constants(spec_a, EPS_W)
        r1, _, _ = derive_periods(spec_a)
        k_half = kappa_vector(rc, spec_a, "half_tau")
        k_full = kappa_vector(rc, spec_a, "full_tau")
        assert k_full[0] - k_half[0] == pytest.approx(-0.5 * spec_a.tau)
        assert k_full[1] - k_half[1] == pytest.approx(-0.5 * spec_a.tau * r1)


class TestInversionCongruence:
    def test_corrected_congruence_closes_half_tau(self, spec_ab, thm51_samples):
        rng = np.random.default_rng(67)
        results, _ = thm51_samples(spec_ab, 3, rng, eps=EPS_W)
        for r in results:
            assert r.n_zeros == 2
            assert r.variant_used == "half_tau"
            assert r.corrected_residual_half_tau < 1e-6
            # the -tau variant misses by the half-period, which is not in Gamma
            assert r.corrected_residual_full_tau > 1e-3

    def test_stated_congruence_misses_by_branch_term(self, spec_ab, thm51_samples):
        # without the branch-cut term the congruence fails by an order-one
        # amount for either constant: the defect is real and c-dependent
        rng = np.random.default_rng(71)
        results, _ = thm51_samples(spec_ab, 3, rng, eps=EPS_W)
        for r in results:
            assert r.literal_residual > 1e-3

    def test_residual_invariant_under_c2_integer_shift(self, spec_a):
        rng = np.random.default_rng(73)
        done = False
        while not done:
            try:
                c, _ = sample_generic_c(spec_a, rng)
                r0 = verify_thm51(c, spec_a, eps=EPS_W)
                r1_ = verify_thm51((c[0], c[1] + 1.0), spec_a, eps=EPS_W)
                done = True
            except THM51_SKIPS:
                continue
        assert abs(r0.corrected_residual_half_tau - r1_.corrected_residual_half_tau) < 1e-9

    def test_residual_stable_under_gamma_generator_shift(self, spec_a):
        # c -> c + (1, r1) leaves the pullback unchanged, hence the congruence
        rng = np.random.default_rng(79)
        r1v, _, _ = derive_periods(spec_a)
        done = False
        while not done:
            try:
                c, _ = sample_generic_c(spec_a, rng)
                r0 = verify_thm51(c, spec_a, eps=EPS_W)
                r1_ = verify_thm51((c[0] + 1.0, c[1] + r1v), spec_a, eps=EPS_W)
                done = True
            except THM51_SKIPS:
                continue
        assert r1_.corrected_residual_half_tau < 1e-6
        assert r0.variant_used == r1_.variant_used
