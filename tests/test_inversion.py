"""Pullback zeros, Laurent data, Riemann constants and the inversion
congruence.

Independent oracles used here:
  - mean-value sampling of T'/T + 1/t over chart circles (holomorphic h3);
  - Richardson extrapolation of t * T(p2 + t) for the residue;
  - continued-log tracking of T along explicit contours;
  - the node-chart formula of the corrected map, against its translation form;
  - finite differences for every analytic derivative.
"""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodal_theta import inversion, theta
from nodal_theta.abel_jacobi import chart_g, divisor_image, e_phi2, phi1, phi2
from nodal_theta.curve import NodalCurveSpec, derive_periods, lattice_coords, mod_gamma_decompose, period_group
from nodal_theta.branches import beta_k
from nodal_theta.errors import ContourThroughZero, DegenerateC, NoPreimage, ZeroCollision
from nodal_theta.differentials import third_kind
from nodal_theta.quadrature import _log_change_sampled, integrate_segment, track_log_sampled
from nodal_theta.inversion import (
    THM51_SKIPS,
    DMap,
    ThetaPullback,
    alpha_dlog_integral,
    beta_dlog_integral,
    branch_correction,
    count_zeros,
    d_map,
    d_map_corrected,
    genericity_failure,
    kappa_vector,
    locate_zeros,
    riemann_constants,
    sample_generic_c,
    verify_thm51,
)
from nodal_theta.theta import TWO_PI_I, e_func, theta_char
from oracles import (
    branch_correction_tracked,
    c_minus1,
    h3,
    h3_zero,
    h3_zero_defect,
    h3_zero_no_derivative,
    jacobian_consistency_check,
    literal_residual,
    value_from_phi,
    winding_number_sampled,
)

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


def H3_to(dm, c2, t):
    """The quadrature of h3 along the straight segment [0, t]."""
    return integrate_segment(lambda s: h3(dm, s, c2), 0.0, complex(t))


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
            b = value_from_phi(tp, P)
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
            assert abs(t * tp.value(spec_a.p2 + t) - c_minus1(dm, tp.c2)) < 1e-4

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

    def test_value_kernel_passes(self, spec_ab, kernel_passes):
        # theta00 and theta_r at z - z0 - c1 and the odd thetas of e(phi2)
        # at z - p1 and z - p2, all four as characteristics at z: one pass
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab, 32)
        tp.value(z)  # warm-up: per-spec caches
        kernel_passes.clear()
        tp.value(z)
        assert kernel_passes == [tp._chars]

    def test_value_and_dvalue_kernel_passes(self, spec_ab, kernel_passes):
        # the same four thetas with their derivatives; eta reads the odd pair
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab, 32)
        tp.value_and_dvalue(z)  # warm-up: per-spec caches
        kernel_passes.clear()
        tp.value_and_dvalue(z)
        assert kernel_passes == [tp._chars]

    def test_repeated_calls_build_no_window(self, spec_ab):
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab, 32)
        tp.value(z)
        tp.value_and_dvalue(z)

        def builds():
            return theta._window.cache_info().misses, theta._window_set.cache_info().misses

        before = builds()
        for _ in range(3):
            tp.value(z)
            tp.value(complex(z[3]))
            tp.value_and_dvalue(z[:5])
        assert builds() == before

    def test_batched_polish_confirms_both_zeros(self, spec_ab, monkeypatch):
        tp = generic_tp(spec_ab)
        s1, s2 = inversion._power_sums(tp)
        starts = np.log(np.roots([1.0, -s1, (s1 * s1 - s2) / 2])) / TWO_PI_I
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


def record_walks(monkeypatch):
    """The edges of every quadrature._track_edges call the inversion module
    makes from now on, one list per call."""
    walks = []
    track = inversion._track_edges

    def recorded(f, edges):
        walks.append(edges)
        return track(f, edges)

    monkeypatch.setattr(inversion, "_track_edges", recorded)
    return walks


def dlog_power_sums(tp, a, n=8192):
    """Dual route of inversion._power_sums: the trapezoid rule at n points on
    the line a for the moments of T'/T,

        e(k q1) + e(k q2) - e(k p2') = (1 - e(k tau))/(2 pi i) int_a^{a+1} e(k z) T'/T dz,

    read from T_c and its derivative."""
    spec = tp.spec
    p2 = spec.p2 if lattice_coords(spec.p2, a, spec.tau)[1] >= 0 else spec.p2 + spec.tau
    k = np.array([[1.0], [2.0]])
    z = a + np.arange(n) / n
    T, dT = tp.value_and_dvalue(z)
    m = (1.0 - e_func(k[:, 0] * spec.tau)) / TWO_PI_I * np.mean(e_func(k * z) * (dT / T), axis=1)
    return m + e_func(k[:, 0] * p2)


class TestCellWalk:
    """One log walk of T_c along the cell boundary serves the zero count,
    both edge integrals and the zero moments."""

    def test_one_walk_per_pullback(self, spec_ab, monkeypatch):
        tp = generic_tp(spec_ab)
        walks = record_walks(monkeypatch)
        count_zeros(tp)
        locate_zeros(tp)
        alpha_dlog_integral(tp)
        beta_dlog_integral(tp)
        assert len(walks) == 1

    def test_edge_integrals_are_the_single_edge_walks(self, spec_ab):
        # the same segments in the same direction: equal bit for bit
        rng = np.random.default_rng(43)
        q0, tau = spec_ab.q0, spec_ab.tau
        for _ in range(5):
            c, _ = sample_generic_c(spec_ab, rng)
            tp = ThetaPullback(c, spec_ab)
            assert alpha_dlog_integral(tp) == track_log_sampled(tp.value, q0, q0 + 1.0)[0] / TWO_PI_I
            assert beta_dlog_integral(tp) == track_log_sampled(tp.value, q0, q0 + tau)[0] / TWO_PI_I

    def test_log_moments_match_dlog_moments(self, spec_ab, monkeypatch):
        # the moments of log T_c against the moments of T'/T, on 20 draws;
        # the log route reads no derivative
        rng = np.random.default_rng(47)
        worst, done = 0.0, 0
        while done < 20:
            c, _ = sample_generic_c(spec_ab, rng)
            tp = ThetaPullback(c, spec_ab)
            with monkeypatch.context() as m:
                m.setattr(tp, "value_and_dvalue", None)
                s = inversion._power_sums(tp)
            if s is None:
                continue
            want = dlog_power_sums(tp, spec_ab.q0)
            worst = max(worst, np.max(np.abs(np.array(s) - want)) / np.max(np.abs(want)))
            done += 1
        assert worst < 1e-12


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

    def test_zero_on_the_cell_edge(self, spec_b, monkeypatch):
        # a zero at lattice coordinate s = 0.99995 on the edge [1, 1 + tau]
        # stops the boundary walk; the cell translated by (1 + tau)/2 counts it
        tp = ThetaPullback((0.65209 + 0.61911j, 0.84486 - 0.01886j), spec_b)
        with pytest.raises(ContourThroughZero):
            winding_number_sampled(tp.value, spec_b.corners)
        walks = record_walks(monkeypatch)
        assert count_zeros(tp) == 2
        # the failed walk is kept: both edge integrals raise it again, and
        # the zeros come from the fallback cell, without a third walk
        for dlog in (alpha_dlog_integral, beta_dlog_integral):
            with pytest.raises(ContourThroughZero):
                dlog(tp)
        q1, q2 = locate_zeros(tp)
        assert [edges[0][0] for edges in walks] == [spec_b.q0, spec_b.q0 + 0.5 * (1 + spec_b.tau)]
        assert max(abs(tp.value(q1)), abs(tp.value(q2))) < 1e-9

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
        spec = spec_a
        kappa = derive_periods(spec)[2]

        def quotient(z):
            return theta_char((0.5, 0.5), z - spec.p1, spec.tau) / theta_char((0.5, 0.5), z - spec.p2, spec.tau)

        def walk(verts):
            """phi2 at the polyline's end by the sampled log walk of Q from z0,
            each odd theta at its shifted argument."""
            return _log_change_sampled(quotient, verts) / TWO_PI_I + kappa * (verts[-1] - verts[0])

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
        detour1 = walk((spec.z0, spec.point(0.5, 0.85), q1))
        detour2 = walk((spec.z0, spec.point(0.88, 0.5), q2))
        w_detour = (phi1(spec, q1) + phi1(spec, q2), detour1 + detour2)
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
        assert abs(extrap - c_minus1(dm, tp.c2)) < 1e-8

    def test_h3_matches_pullback_log_derivative(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        for k in range(8):
            t = (EPS_W / 2) * cmath.exp(2j * math.pi * k / 8)
            assert abs(h3(dm, t, tp.c2) - h3_direct(tp, t)) < 1e-8

    def test_h3_zero_closed_form_vs_oracle(self, spec_ab):
        # definition-consistent closed form agrees with the mean-value oracle
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        assert abs(h3_zero(dm, tp.c2) - oracle) < 1e-8

    def test_h3_zero_short_form_misses_by_the_defect(self, spec_ab):
        # the shorter display formula theta00 e(c2) / (theta_r g0) deviates
        # from the true limit by exactly theta_r'/theta_r + 2*pi*i*h1(0)
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        gap = oracle - h3_zero_no_derivative(dm, tp.c2)
        assert abs(gap) > 1e-3
        assert abs(gap - h3_zero_defect(dm)) < 1e-8

    def test_h2_is_pullback_minus_pole(self, spec_ab):
        # the regular part h2 = T_c - c_minus1/t of the pullback at p2 is
        # c_minus1 (f(t) - 1)/t on the chart
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        cm1 = c_minus1(dm, tp.c2)
        for t in (EPS_W / 2, EPS_W / 3 * cmath.exp(1.2j)):
            direct = tp.value(spec_ab.p2 + t) - cm1 / t
            assert abs(cm1 * (dm.f(t, tp.c2) - 1.0) / t - direct) < 1e-9


def theta11_mpmath(x, tau, k=0, n_max=30):
    """k-th derivative of theta[1/2;1/2] at x by termwise sums (mpmath
    precision of the caller)."""
    x, tau = mpmath.mpc(x), mpmath.mpc(tau)
    total = mpmath.mpc(0)
    for n in range(-n_max, n_max + 1):
        na = n + mpmath.mpf(0.5)
        term = mpmath.exp(2j * mpmath.pi * (na * na * tau / 2 + na * (x + mpmath.mpf(0.5))))
        total += (2j * mpmath.pi * na) ** k * term
    return total


class TestGFunction:
    def test_g_over_t_equals_e_phi2(self, spec_ab):
        # on a circle inside the node disk and on both sides of the switch
        # from theta11(t)/t to its Taylor form
        ts = [(EPS_W / 2) * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
        ts += [0.0099 * cmath.exp(0.4j), 0.0101 * cmath.exp(0.4j), -0.0099j, -0.0101j]
        for t in ts:
            lhs = chart_g(spec_ab, t) / t
            rhs = e_phi2(spec_ab, spec_ab.p2 + t)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_g_matches_mpmath(self, spec_ab):
        # g(t) = t Q(p2 + t) e(kappa (p2 + t - z0)) / Q(z0) by termwise theta
        # sums at 40 digits; at t = 0 the limit theta11(p2 - p1) / theta11'(0)
        spec = spec_ab
        kappa = derive_periods(spec)[2]
        with mpmath.workdps(40):
            q_z0 = theta11_mpmath(spec.z0 - spec.p1, spec.tau) / theta11_mpmath(spec.z0 - spec.p2, spec.tau)

            def want(t):
                e = mpmath.exp(2j * mpmath.pi * kappa * (spec.p2 + mpmath.mpc(t) - spec.z0)) / q_z0
                if t == 0:
                    return complex(theta11_mpmath(spec.p2 - spec.p1, spec.tau) * e / theta11_mpmath(0, spec.tau, 1))
                ratio = theta11_mpmath(spec.p2 + t - spec.p1, spec.tau) / theta11_mpmath(t, spec.tau)
                return complex(mpmath.mpc(t) * ratio * e)

            for r in (0.0, 1e-3, 0.0099, 0.0101, spec.eps):
                for angle in (0.0, 1.3, -2.0):
                    t = r * cmath.exp(1j * angle)
                    w = want(t)
                    assert abs(chart_g(spec, t) - w) <= 1e-12 * abs(w)

    def test_g_finite_nonzero_at_origin(self, spec_ab):
        g0 = chart_g(spec_ab, 0.0)
        assert abs(g0) > 1e-6
        assert np.isfinite(g0)

    def test_g_lipschitz_near_origin(self, spec_ab):
        g0 = chart_g(spec_ab, 0.0)
        ts = np.array([1e-3, 1e-4, 1e-5])
        for t in ts:
            assert abs(chart_g(spec_ab, t) - g0) < 10.0 * abs(g0) * t


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
            assert abs(recon - h3(dm, t, tp.c2)) < 1e-10 * max(1.0, abs(h3(dm, t, tp.c2)))

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
            return theta_char((-tp.r1, tp.r2), x2 + t, spec.tau) * chart_g(spec, t)

        fd = (G(h) - G(-h)) / (2 * h)
        assert abs(B - fd) < 1e-6 * max(1.0, abs(B))

    def test_determinant_at_origin_is_diagonal_product(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        A, B, C, D = dm.mobius_coeffs(0.0)
        # det(0) = A(0) D(0) because C(0) = 0
        want = theta_char((0.0, 0.0), phi1(tp.spec, tp.spec.p2) - tp.c1, tp.spec.tau) * dm.beta_coeff
        assert abs(A * D - B * C - want) < 1e-10 * abs(want)

    def test_one_kernel_pass(self, spec_ab, kernel_passes):
        # T_c's four thetas with their derivatives, read at p2 + t
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        t = EPS_W * np.exp(2j * np.pi * np.arange(8) / 8)
        dm.mobius_coeffs(t)  # warm-up: per-spec caches
        kernel_passes.clear()
        dm.mobius_coeffs(t)
        assert kernel_passes == [tp._chars]

    def test_chart_reuses_the_pullback_windows(self, spec_ab):
        # the chart's passes read the characteristics and derivative orders
        # of the pullback's value and value_and_dvalue: no new series window
        spec = spec_ab
        c, _ = sample_generic_c(spec, np.random.default_rng(37))
        tp = ThetaPullback(c, spec)
        z = spec.p2 + EPS_W * np.exp(2j * np.pi * np.arange(8) / 8)
        tp.value(z)
        tp.value_and_dvalue(z)
        dm = DMap(spec, tp.c1, EPS_W)
        misses = theta._window.cache_info().misses
        dm.f(z - spec.p2, tp.c2)
        dm.mobius_coeffs(z - spec.p2)
        assert theta._window.cache_info().misses == misses

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
        assert H3_to(dm, tp.c2, 0.0) == 0

    def test_fundamental_theorem(self, spec_ab):
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        t, h = 0.6 * EPS_W, 1e-6
        fd = (H3_to(dm, tp.c2, t + h) - H3_to(dm, tp.c2, t - h)) / (2 * h)
        assert abs(fd - h3(dm, t, tp.c2)) < 1e-6 * max(1.0, abs(h3(dm, t, tp.c2)))

    def test_integer_period_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = chart(tp).H3(tp.c2)
        b = chart(tp).H3(tp.c2 + 1.0)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_not_half_periodic_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = h3(chart(tp), 0.5 * EPS_W, tp.c2)
        b = h3(chart(tp), 0.5 * EPS_W, tp.c2 + 0.5)
        assert abs(a - b) > 1e-4

    def test_jacobian_dual_route(self, spec_ab):
        tp = generic_tp(spec_ab)
        rel = jacobian_consistency_check(chart(tp), tp.c2)
        assert rel < 1e-6


class TestDMap:
    def test_f_one_kernel_pass(self, spec_ab, kernel_passes):
        # alpha1 and G share one window pass
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        dm.f(dm.eps, tp.c2)  # warm-up: per-spec caches
        kernel_passes.clear()
        dm.f(dm.eps, tp.c2)
        assert kernel_passes == [tp._chars]

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
        dm = chart(tp)
        a = branch_correction(dm, tp.c2, dm.d2_and_log_f(tp.c2)[1])
        b = branch_correction_tracked(tp, EPS_W)
        diff = a - b
        assert abs(diff - round(diff.real)) < 1e-10

    def test_correction_reuses_the_walk_end(self, spec_ab):
        # Log f(eps) from d2's walk agrees with a fresh evaluation of f(eps)
        dm = chart(generic_tp(spec_ab))
        c2 = 0.3 - 0.1j
        d2, log_f = dm.d2_and_log_f(c2)
        assert d2 == dm.d2(c2)
        log_f_scalar = np.log(dm.f(dm.eps, c2))
        assert abs(log_f - log_f_scalar) < 1e-15
        a = branch_correction(dm, c2, log_f)
        assert abs(a - branch_correction(dm, c2, log_f_scalar)) < 1e-15

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
        # the adaptive rule converges at tol = 1e-12 on a draw where an
        # integrand with a switch near t = 1e-3 could not
        rng = np.random.default_rng(19)
        for _ in range(11):
            c, _ = sample_generic_c(spec_a, rng)
        dm = DMap(spec_a, c[0], eps)
        h3_fine = integrate_segment(lambda t: h3(dm, t, c[1]), 0.0, complex(eps), 1e-12)
        assert abs(h3_fine - TWO_PI_I * (dm.d2(c[1]) - dm.c1 * dm.r1)) < 1e-13


def chart_corrected_d2(spec, c, eps):
    """The corrected map's second component on the node chart of (c1, eps),
    the route the translation replaced: c1 r1 + (Log theta00(phi1(p1) - c1)
    - Log c_minus1(c2) + log eps)/(2 pi i)."""
    dm = DMap(spec, c[0], eps)
    th = theta_char((0.0, 0.0), phi1(spec, spec.p1) - dm.c1, spec.tau)
    return dm.c1 * dm.r1 + (cmath.log(th) - cmath.log(c_minus1(dm, c[1])) + math.log(eps)) / TWO_PI_I


def frac_norm(x):
    return abs(x - round(x.real))


class TestCorrectedTranslation:
    def test_translation_matches_the_chart(self, spec_ab):
        # d_corr(eps)(c) = c + (0, sigma(eps)) against the chart formula, mod 1
        rng = np.random.default_rng(97)
        for _ in range(8):
            c, _ = sample_generic_c(spec_ab, rng)
            for eps in (0.05, 0.04, 0.03, 0.02):
                d = d_map_corrected(eps, c, spec_ab)
                assert d[0] == c[0]
                assert frac_norm(d[1] - chart_corrected_d2(spec_ab, c, eps)) < 1e-13

    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
        q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
        c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_translation_matches_the_chart_on_generated_specs(self, tau, q0, coords, c):
        tau, q0 = complex(*tau), complex(*q0)
        p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
        try:
            spec = NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
        except ValueError:
            assume(False)
        c = (c[0] + c[1] * tau, complex(c[2], c[3]))
        for eps in (spec.eps / 2, spec.eps / 4):
            try:
                want = chart_corrected_d2(spec, c, eps)
            except DegenerateC:
                assume(False)
            assert frac_norm(d_map_corrected(eps, c, spec)[1] - want) < 1e-13

    def test_branch_correction_is_the_reduced_difference(self, spec_ab):
        # A = d_corr - d mod 1, with Re A in [-1/2, 1/2)
        rng = np.random.default_rng(101)
        for _ in range(6):
            c, _ = sample_generic_c(spec_ab, rng)
            dm = DMap(spec_ab, c[0], EPS_W)
            d2, log_f = dm.d2_and_log_f(c[1])
            a = branch_correction(dm, c[1], log_f)
            assert -0.5 <= a.real < 0.5
            assert frac_norm(a - (chart_corrected_d2(spec_ab, c, EPS_W) - d2)) < 1e-13

    @pytest.mark.parametrize("factor", [0.0, 2.0])
    def test_radius_outside_the_chart_raises(self, spec_ab, factor):
        spec, eps = spec_ab, factor * spec_ab.eps
        c, _ = sample_generic_c(spec, np.random.default_rng(89))
        kap = kappa_vector(riemann_constants(spec, EPS_W), spec, "half_tau")
        u = (c[0] + kap[0], c[1] + kap[1])
        for call in (
            lambda: DMap(spec, c[0], eps),
            lambda: d_map_corrected(eps, c, spec),
            lambda: beta_k(u, spec, eps, _kappa_cache=kap),
            lambda: riemann_constants(spec, eps),
            lambda: beta_k(u, spec, eps),
            lambda: verify_thm51(c, spec, eps),
        ):
            with pytest.raises(ValueError, match=re.escape("chart radius eps must lie in (0, spec.eps]")):
                call()


class TestRiemannConstants:
    def test_alpha_phi1_integral_closed_form(self, spec_ab):
        rc = riemann_constants(spec_ab, EPS_W)
        want = 0.5 + (spec_ab.q0 - spec_ab.z0)
        assert abs(rc.alpha_phi1_integral - want) < 1e-10

    def test_kappa1_epsilon_free(self, spec_a):
        a = riemann_constants(spec_a, EPS_W)
        b = riemann_constants(spec_a, EPS_W / 2)
        assert a.kappa1 == b.kappa1

    def test_corrected_map_plus_kappa2_is_epsilon_free(self, spec_ab):
        # a(eps) carries -log(eps)/(2*pi*i) and the corrected map
        # +log(eps)/(2*pi*i): their sum does not depend on the radius
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(83))
        sums = [
            d_map_corrected(eps, c, spec_ab)[1] + riemann_constants(spec_ab, eps).kappa2
            for eps in (0.05, 0.04, 0.03, 0.01)
        ]
        assert max(abs(s - sums[0]) for s in sums) < 1e-14

    def test_refinement_stability(self, spec_a):
        # kappa2's one quadrature, int_alpha phi2 dz, redone at a tenth of
        # the package's tolerance moves kappa2 by less than 1e-9
        eta = third_kind(spec_a).eta_coeff
        finer = phi2(spec_a, spec_a.q0) + integrate_segment(
            lambda x: (1.0 - x) * eta(spec_a.q0 + x), 0.0, 1.0, 1e-11
        )
        rc = riemann_constants(spec_a, EPS_W)
        assert abs(rc.alpha_phi2_integral - finer) < 1e-9

    def test_computed_once_per_radius(self, spec_a, monkeypatch, thm51_samples):
        # verify_thm51 reads the constants on every sample, and they depend
        # only on (spec, eps): a(eps) is computed once for the whole batch
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
    # kernel passes of one verify_thm51 once the spec's caches are warm;
    # before each theta's shift was folded into its characteristic it made
    # 27 (a) and 31 (b) on the same c, 10 (a) and 11 (b) while the node
    # chart's factor g was anchored by its own e(phi2) pass, 9 (a) and
    # 10 (b) while the zero moments sampled T'/T apart from the cell walk,
    # and 8 (a) and 9 (b) while a quadrature panel called its integrand once
    # per Gauss-Legendre rule
    PASS_BUDGET = {"a": 7, "b": 8}

    def test_kernel_pass_budget(self, request, spec_ab, kernel_passes):
        rng = np.random.default_rng(101)
        verify_thm51(sample_generic_c(spec_ab, rng)[0], spec_ab, eps=EPS_W)  # warm-up: per-spec caches
        c, _ = sample_generic_c(spec_ab, rng)
        kernel_passes.clear()
        verify_thm51(c, spec_ab, eps=EPS_W)
        assert len(kernel_passes) <= self.PASS_BUDGET[request.node.callspec.id]

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
            assert literal_residual(r) > 1e-3

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
