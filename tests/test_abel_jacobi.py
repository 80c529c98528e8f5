"""Period map: closed form vs quadrature, cut jumps, monodromy, pole charts."""

import cmath
import math

import numpy as np
import pytest

from nodal_theta import abel_jacobi
from nodal_theta.abel_jacobi import (
    _theta_quotient,
    a_eps,
    a_eps_bruteforce,
    default_path,
    default_path_vertices,
    divisor_image,
    e_phi2,
    loop_increment,
    phi,
    phi1,
    phi2,
    phi2_chart_p2,
    trace_path,
)
from nodal_theta.curve import derive_periods
from nodal_theta.differentials import third_kind
from nodal_theta.errors import PoleProximity
from nodal_theta.quadrature import integrate_polyline, track_log
from nodal_theta.theta import TWO_PI_I


def circle_poly(center, radius, n=24):
    return [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n + 1)]


def phi2_scalar(spec, verts):
    """phi2 along the polyline by the scalar step-halving log tracker."""
    q = _theta_quotient(spec)
    total, f_cur = 0.0 + 0.0j, q(verts[0])
    for a, b in zip(verts[:-1], verts[1:]):
        d, f_cur = track_log(q, a, b, f_a=f_cur)
        total += d
    return total / TWO_PI_I + third_kind(spec).kappa_coeff * (verts[-1] - verts[0])


class TestPhi1:
    def test_base_point_is_zero(self, spec_ab):
        assert phi1(spec_ab, spec_ab.z0) == 0

    def test_linear(self, spec_ab):
        assert phi1(spec_ab, spec_ab.z0 + 0.25) == pytest.approx(0.25)

    def test_outside_cell_rejected(self, spec_a):
        with pytest.raises(ValueError):
            phi1(spec_a, spec_a.q0 - 0.5 - 0.5j)


class TestPhi2:
    def test_base_point_is_zero(self, spec_ab):
        assert abs(phi2(spec_ab, spec_ab.z0)) < 1e-14

    def test_default_path_walked_once_per_point(self, spec_a, monkeypatch):
        # the corrected and the stated inverse of one curve point share a walk
        walks = []
        walk = abel_jacobi.trace_path
        monkeypatch.setattr(abel_jacobi, "trace_path", lambda *args: walks.append(args) or walk(*args))
        default_path.cache_clear()
        P = spec_a.point(0.37, 0.61)
        first = phi(spec_a, P)
        assert phi(spec_a, P) == first
        assert len(walks) == 1

    def test_matches_quadrature_of_eta(self, spec_ab):
        spec = spec_ab
        diff = third_kind(spec)
        rng = np.random.default_rng(8)
        count = 0
        while count < 50:
            P = spec.point(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            verts = default_path_vertices(spec, P)
            count += 1
            quad = integrate_polyline(diff.eta_coeff, verts, 1e-12)
            assert abs(phi2(spec, P) - quad) < 1e-9

    def test_path_independence_within_cut_domain(self, spec_ab):
        spec = spec_ab
        P = spec.point(0.85, 0.9)
        direct = phi2(spec, P)
        center = spec.point(0.5, 0.82)
        detour = trace_path(spec, (spec.z0, center, P))
        assert abs(direct - detour.branch_state) < 1e-9

    def test_gamma1_loop_adds_one(self, spec_ab):
        spec = spec_ab
        inc = loop_increment(spec, circle_poly(spec.p1, spec.delta))
        assert abs(inc - 1.0) < 1e-8

    def test_gamma2_loop_subtracts_one(self, spec_ab):
        spec = spec_ab
        inc = loop_increment(spec, circle_poly(spec.p2, spec.eps))
        assert abs(inc + 1.0) < 1e-8

    def test_pole_proximity_raises(self, spec_a):
        with pytest.raises(PoleProximity):
            trace_path(spec_a, (spec_a.z0, spec_a.p1))

    def test_sampled_walk_matches_scalar_oracle(self, spec_ab):
        # every cell point of a 40 x 40 grid that admits a default path; a
        # different integer branch would show as a gap of about 1
        spec = spec_ab
        n_points = 0
        for s in np.linspace(0.0, 1.0, 40):
            for t in np.linspace(0.0, 1.0, 40):
                try:
                    verts = default_path_vertices(spec, spec.point(s, t))
                except PoleProximity:
                    continue
                gap = trace_path(spec, verts).branch_state - phi2_scalar(spec, verts)
                assert abs(gap) < 1e-12, (s, t, gap)
                n_points += 1
        assert n_points > 1500


class TestTranslationIncrements:
    """Open-path continuations across one lattice step reproduce the real
    periods r1, r2; these feed the cut-jump relations."""

    def test_alpha_translation(self, spec_ab):
        spec = spec_ab
        r1, _, kappa = derive_periods(spec)
        from nodal_theta.abel_jacobi import _theta_quotient
        from nodal_theta.quadrature import track_log

        q = _theta_quotient(spec)
        d, _ = track_log(q, spec.z0, spec.z0 + 1.0)
        inc = d / (2j * math.pi) + kappa
        assert abs(inc - r1) < 1e-8

    def test_beta_translation(self, spec_ab):
        spec = spec_ab
        _, r2, kappa = derive_periods(spec)
        from nodal_theta.abel_jacobi import _theta_quotient
        from nodal_theta.quadrature import track_log

        q = _theta_quotient(spec)
        d, _ = track_log(q, spec.z0, spec.z0 + spec.tau)
        inc = d / (2j * math.pi) + kappa * spec.tau
        assert abs(inc - r2) < 1e-8


class TestCutJumps:
    def test_alpha_cut(self, spec_ab):
        # P on the bottom edge, partner point P + tau on the top edge:
        # phi(P + tau) = phi(P) + (tau, r2)
        spec = spec_ab
        _, r2, _ = derive_periods(spec)
        for s in np.linspace(0.025, 0.975, 20):
            P = spec.q0 + s
            d1 = phi1(spec, P + spec.tau) - phi1(spec, P) - spec.tau
            d2 = phi2(spec, P + spec.tau) - phi2(spec, P) - r2
            assert abs(d1) < 1e-8 and abs(d2) < 1e-8

    def test_beta_cut(self, spec_ab):
        # P on the right edge, partner point P - 1 on the left edge:
        # phi(P - 1) = phi(P) - (1, r1)
        spec = spec_ab
        r1, _, _ = derive_periods(spec)
        for t in np.linspace(0.025, 0.975, 20):
            P = spec.q0 + 1 + t * spec.tau
            d1 = phi1(spec, P - 1) - phi1(spec, P) + 1.0
            d2 = phi2(spec, P - 1) - phi2(spec, P) + r1
            assert abs(d1) < 1e-8 and abs(d2) < 1e-8


class TestDivisorImage:
    def test_double_base_point(self, spec_ab):
        w = divisor_image(spec_ab, [spec_ab.z0, spec_ab.z0])
        assert abs(w[0]) < 1e-14 and abs(w[1]) < 1e-13

    def test_permutation_invariance(self, spec_a):
        spec = spec_a
        A = spec.point(0.2, 0.8)
        B = spec.point(0.9, 0.6)
        assert divisor_image(spec, [A, B]) == divisor_image(spec, [B, A])

    def test_accepts_explicit_paths(self, spec_a):
        spec = spec_a
        P = spec.point(0.8, 0.15)
        path = default_path(spec, P)
        via_pair = divisor_image(spec, [(P, path)])
        assert via_pair[1] == pytest.approx(path.branch_state)


class TestPoleCharts:
    def test_e_phi2_vanishes_toward_p1(self, spec_ab):
        # |e(phi2)| decays linearly with the distance to p1
        spec = spec_ab
        vals = []
        for k in (2, 3, 4):
            t = 10.0**-k * cmath.exp(0.4j)
            vals.append(abs(e_phi2(spec, spec.p1 + t)))
        assert vals[1] / vals[0] == pytest.approx(0.1, rel=0.05)
        assert vals[2] / vals[1] == pytest.approx(0.1, rel=0.05)

    def test_chart_p2_agrees_with_path_mod_integers(self, spec_ab):
        # both are branches of the same multivalued function
        spec = spec_ab
        t = (spec.eps / 2) * cmath.exp(1.1j)
        d = phi2_chart_p2(spec, t) - phi2(spec, spec.p2 + t)
        assert abs(d - round(d.real)) < 1e-9

    def test_a_eps_matches_bruteforce(self, spec_ab):
        spec = spec_ab
        got = a_eps(spec, spec.eps / 2)
        brute = a_eps_bruteforce(spec, spec.eps / 2, n=4096)
        assert abs(got - brute) < 1e-7

    def test_a_eps_deterministic_and_shift_free(self, spec_a):
        # the circle average has no dependence on the theta shift c at all,
        # so repeated evaluation is bitwise-stable
        assert a_eps(spec_a, 0.03) == a_eps(spec_a, 0.03)

    def test_a_eps_branch_restart_regression(self, spec_a):
        # restarting the branch at angle u0 moves the average by an exact
        # integer times the remaining arc length; pinned: gap 0 at u0=1/2,
        # gap 1 at u0=3/4 for this configuration
        from nodal_theta.abel_jacobi import a_eps_branch_restart

        base = a_eps(spec_a, 0.03)
        r_half = a_eps_branch_restart(spec_a, 0.03, 0.5)
        r_quart = a_eps_branch_restart(spec_a, 0.03, 0.75)
        assert abs(r_half - base) < 1e-9
        assert abs(r_quart - base - 0.25) < 1e-9

    def test_a_eps_log_growth(self, spec_a):
        # a(eps) = a(eps0) - log(eps/eps0)/(2*pi*i): each halving of eps adds
        # log(2)/(2*pi*i)
        spec = spec_a
        e0 = spec.eps / 2
        step = math.log(2.0) / TWO_PI_I
        a0, a1, a2 = (a_eps(spec, e0 / 2**k) for k in range(3))
        assert abs(a1 - a0 - step) < 1e-12
        assert abs(a2 - a1 - step) < 1e-12
