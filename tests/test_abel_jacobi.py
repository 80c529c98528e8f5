"""Period map: closed form vs quadrature, cut jumps, monodromy, pole charts."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodal_theta import abel_jacobi
from nodal_theta.abel_jacobi import (
    _arg_table,
    _q_at_z0,
    a_eps,
    divisor_image,
    e_phi2,
    loop_increment,
    phi1,
    phi2,
)
from nodal_theta.curve import NodalCurveSpec, derive_periods
from nodal_theta.differentials import odd_chars, third_kind
from nodal_theta.errors import ContourThroughZero, LogBranchUnresolved, PoleAt
from nodal_theta.quadrature import integrate_polyline
from nodal_theta.theta import TWO_PI_I, theta_char
from conftest import GENERATED_SPECS, generated_spec
from oracles import a_eps_bruteforce, phi2_chart_p2, track_log

def circle_poly(center, radius, n=24):
    return [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n + 1)]


def theta_quotient(spec):
    """Q(z) = theta11(z - p1)/theta11(z - p2), each theta at its shifted
    argument: a route apart from the package's one pass at z."""
    return lambda z: theta_char((0.5, 0.5), z - spec.p1, spec.tau) / theta_char((0.5, 0.5), z - spec.p2, spec.tau)


def phi2_scalar(spec, verts):
    """phi2 along the polyline by the scalar step-halving log tracker."""
    q = theta_quotient(spec)
    total, f_cur = 0.0 + 0.0j, q(verts[0])
    for a, b in zip(verts[:-1], verts[1:]):
        d, f_cur = track_log(q, a, b, f_a=f_cur)
        total += d
    return total / TWO_PI_I + third_kind(spec).kappa_coeff * (verts[-1] - verts[0])


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def crosses_cut(spec, a: complex, b: complex) -> bool:
    """The segment [a, b] meets phi2's cut, the segment [p1, p2]."""
    p, q = spec.p1, spec.p2
    return (
        _cross(b - a, p - a) * _cross(b - a, q - a) <= 0
        and _cross(q - p, a - p) * _cross(q - p, b - p) <= 0
    )


def pole_distance(spec, a: complex, b: complex) -> float:
    """Distance from the segment [a, b] to the nearer of p1 and p2."""
    poles = (spec.p1, spec.p2)
    u = np.clip([((p - a) * (b - a).conjugate()).real / max(abs(b - a) ** 2, 1e-300) for p in poles], 0, 1)
    return min(abs(p - (a + x * (b - a))) for p, x in zip(poles, u))


def assert_matches_scalar_oracle(spec, points) -> int:
    """The closed form against the scalar walk along the straight segment
    (z0, P): equal mod 1 within 1e-12, and equal outright where the segment
    neither crosses [p1, p2] nor comes within min(delta, eps)/4 of a pole.
    Returns the number of points compared (a segment through a pole is
    skipped)."""
    margin = min(spec.delta, spec.eps) / 4
    vals = phi2(spec, np.asarray(points))
    n = 0
    for P, val in zip(points, vals):
        try:
            gap = val - phi2_scalar(spec, (spec.z0, P))
        except ContourThroughZero:
            continue
        turns = round(gap.real)
        assert abs(gap - turns) < 1e-12, (P, gap)
        if not crosses_cut(spec, spec.z0, P) and pole_distance(spec, spec.z0, P) >= margin:
            assert turns == 0, (P, gap)
        n += 1
    return n


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

    def test_one_kernel_pass_per_call(self, spec_a, kernel_passes):
        # once a spec's arg R table and L(z0) are built, phi2 reads both odd
        # thetas of any batch from one pass, and divisor_image makes one
        # call; the spec is a cold copy, and Q(z0) is built here too
        spec = dataclasses.replace(spec_a)
        phi2(spec, spec.point(0.37, 0.61))
        _q_at_z0(spec)
        kernel_passes.clear()
        phi2(spec, np.array([spec.point(s, 0.3) for s in (0.1, 0.2, 0.6, 0.9)]))
        assert kernel_passes == [odd_chars(spec)]
        kernel_passes.clear()
        divisor_image(spec, [spec.point(0.2, 0.8), spec.point(0.9, 0.6)])
        assert kernel_passes == [odd_chars(spec)]
        # e(phi2): Q's two odd thetas at z, once Q(z0) is built
        kernel_passes.clear()
        e_phi2(spec, np.array([spec.point(s, 0.7) for s in (0.1, 0.2, 0.6, 0.9)]))
        assert kernel_passes == [odd_chars(spec)]

    @pytest.mark.bitwise
    def test_batch_equals_scalar_calls(self, spec_ab):
        spec = spec_ab
        pts = np.array([spec.point(s, t) for s in (0.0, 0.3, 0.61) for t in (0.1, 0.5, 1.0)])
        assert np.array_equal(phi2(spec, pts.reshape(3, 3)).ravel(), [phi2(spec, P) for P in pts])

    def test_matches_quadrature_of_eta(self, spec_ab):
        spec = spec_ab
        diff = third_kind(spec)
        rng = np.random.default_rng(8)
        count = 0
        while count < 50:
            P = spec.point(rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98))
            if crosses_cut(spec, spec.z0, P) or pole_distance(spec, spec.z0, P) < min(spec.delta, spec.eps) / 4:
                continue
            count += 1
            quad = integrate_polyline(diff.eta_coeff, (spec.z0, P), 1e-12)
            assert abs(phi2(spec, P) - quad) < 1e-9

    def test_path_independence_within_cut_domain(self, spec_ab):
        spec = spec_ab
        P = spec.point(0.85, 0.9)
        direct = phi2(spec, P)
        center = spec.point(0.5, 0.82)
        detour = phi2_scalar(spec, (spec.z0, center, P))
        assert abs(direct - detour) < 1e-9

    def test_gamma1_loop_adds_one(self, spec_ab):
        spec = spec_ab
        inc = loop_increment(spec, circle_poly(spec.p1, spec.delta))
        assert abs(inc - 1.0) < 1e-8

    def test_gamma2_loop_subtracts_one(self, spec_ab):
        spec = spec_ab
        inc = loop_increment(spec, circle_poly(spec.p2, spec.eps))
        assert abs(inc + 1.0) < 1e-8

    def test_identified_points_raise(self, spec_ab):
        for p in (spec_ab.p1, spec_ab.p2):
            with pytest.raises(PoleAt):
                phi2(spec_ab, p)

    def test_poles_on_table_nodes(self):
        # p1 and p2 sit exactly on nodes of the 33 x 33 table; their nodes
        # move off them, and the closed form keeps the oracle's branch
        spec = NodalCurveSpec(tau=1j, p1=0.75 + 0.5j, p2=0.25 + 0.5j, z0=0.5 + 0.125j)
        assert np.isfinite(_arg_table(spec)).all()
        grid = np.linspace(0.0, 1.0, 12)
        assert assert_matches_scalar_oracle(spec, [spec.point(s, t) for s in grid for t in grid]) > 100

    def test_principal_log_r_jumps_inside_the_cell(self):
        # p1 and p2 near opposite edges: the principal Arg R jumps by about
        # 2 pi between neighbouring nodes, so the integer of log R must come
        # from the table; the principal Log R alone misses the oracle by 1
        tau, q0 = -0.23 + 1.05j, 0.29 - 0.6j
        spec = NodalCurveSpec(
            tau=tau, p1=q0 + 0.08 + 0.94 * tau, p2=q0 + 0.79 + 0.16 * tau, z0=q0 + 0.81 + 0.28 * tau, q0=q0
        )
        grid = np.linspace(0.0, 1.0, 20)
        points = [spec.point(s, t) for s in grid for t in grid]
        arg_r = np.angle(abel_jacobi._ratio_and_r(spec, np.array(points))[1]).reshape(20, 20)
        assert np.abs(np.diff(arg_r, axis=1)).max() > 6.0
        assert assert_matches_scalar_oracle(spec, points) == 400

    def test_unresolved_table_raises(self, spec_a, monkeypatch):
        # no grid up to the cap meets the step bound: a named error, no fallback
        monkeypatch.setattr(abel_jacobi, "_ARG_STEP", 0.0)
        monkeypatch.setattr(abel_jacobi, "_ARG_NODES_MAX", 65)
        with pytest.raises(LogBranchUnresolved):
            _arg_table(dataclasses.replace(spec_a))

    def test_closed_form_matches_scalar_oracle(self, spec_ab):
        # a 40 x 40 grid of the cell; a different integer branch would show
        # as a gap of about 1
        spec = spec_ab
        grid = np.linspace(0.0, 1.0, 40)
        points = [spec.point(s, t) for s in grid for t in grid]
        assert assert_matches_scalar_oracle(spec, points) > 1500

    @given(
        **GENERATED_SPECS,
        cell_coords=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=6, max_size=6),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_closed_form_matches_scalar_oracle_on_generated_specs(self, tau, q0, coords, cell_coords):
        spec = generated_spec(tau, q0, coords)
        points = [spec.point(s, t) for s, t in cell_coords]
        assume(all(min(abs(P - spec.p1), abs(P - spec.p2)) > 1e-6 for P in points))
        assert assert_matches_scalar_oracle(spec, points) > 0


class TestTranslationIncrements:
    """Open-path continuations across one lattice step reproduce the real
    periods r1, r2; these feed the cut-jump relations."""

    def test_alpha_translation(self, spec_ab):
        spec = spec_ab
        r1, _, kappa = derive_periods(spec)
        q = theta_quotient(spec)
        d, _ = track_log(q, spec.z0, spec.z0 + 1.0)
        inc = d / (2j * math.pi) + kappa
        assert abs(inc - r1) < 1e-8

    def test_beta_translation(self, spec_ab):
        spec = spec_ab
        _, r2, kappa = derive_periods(spec)
        q = theta_quotient(spec)
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


    @given(**GENERATED_SPECS)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_cut_relations_on_generated_specs(self, tau, q0, coords):
        # no integer slack: phi2's only cut inside the cell is [p1, p2], so
        # the relations hold exactly, wherever the base point lies
        spec = generated_spec(tau, q0, coords)
        r1, r2, _ = derive_periods(spec)
        u = np.linspace(0.0, 1.0, 9)
        bottom = spec.q0 + u
        right = spec.q0 + 1 + u * spec.tau
        assert np.abs(phi2(spec, bottom + spec.tau) - phi2(spec, bottom) - r2).max() < 1e-14
        assert np.abs(phi2(spec, right - 1) - phi2(spec, right) + r1).max() < 1e-14


class TestDivisorImage:
    def test_double_base_point(self, spec_ab):
        w = divisor_image(spec_ab, [spec_ab.z0, spec_ab.z0])
        assert abs(w[0]) < 1e-14 and abs(w[1]) < 1e-13

    def test_permutation_invariance(self, spec_a):
        spec = spec_a
        A = spec.point(0.2, 0.8)
        B = spec.point(0.9, 0.6)
        assert divisor_image(spec, [A, B]) == divisor_image(spec, [B, A])


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

    # a(0.03) of each preset; OpenBLAS cores differ in its last bits
    A_EPS_003 = {"a": -0.8993972314309875 - 0.3305782790396736j, "b": -0.08977386091931405 - 0.27032839393197283j}

    def test_a_eps_checks_its_radius(self, spec_ab, preset):
        for eps in (-0.01, 0.0, spec_ab.eps * (1 + 1e-5), spec_ab.eps + 0.001, math.nan, 0.03 + 0.02j,
                    np.complex128(0.03 + 0.02j)):
            with pytest.raises(ValueError, match="chart radius eps must lie in"):
                a_eps(spec_ab, eps)
        assert np.isfinite(a_eps(spec_ab, spec_ab.eps))
        assert abs(a_eps(spec_ab, 0.03) - self.A_EPS_003[preset]) < 1e-15

    def test_a_eps_deterministic_and_shift_free(self, spec_a):
        # the circle average has no dependence on the theta shift c at all,
        # so repeated evaluation is bitwise-stable
        assert a_eps(spec_a, 0.03) == a_eps(spec_a, 0.03)

    def test_a_eps_branch_restart_regression(self, spec_a):
        # restarting the branch at angle u0 moves the average by an exact
        # integer times the remaining arc length; pinned: gap 0 at u0=1/2,
        # gap 1 at u0=3/4 for this configuration
        from oracles import a_eps_branch_restart

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
