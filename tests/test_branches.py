"""Radius selection, branch inversion and the zero-set containment picture.

The corrected inverse places the curve image in the zero set at machine
precision but does so through an identity that holds for every argument
(the test pins this vacuity explicitly); the closed-form inverse of the
uncorrected map leaves an order-one residual on the curve, or certifies that
the curve point has no preimage.  Both facts are asserted, since together
they summarize what the containment statement actually delivers
numerically.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodal_theta import inversion, quadrature
from nodal_theta.abel_jacobi import phi
from nodal_theta.branches import (
    _PERIOD_FRACTIONS,
    _SELECT_N_C,
    _period_moves,
    beta_k,
    estimate_u20_radius,
    select_epsilon,
    zero_set_residual,
)
from nodal_theta.curve import NodalCurveSpec, derive_periods, reduce_to_cell
from nodal_theta.errors import ContourThroughZero, DegenerateC, NoPreimage, NoValidEpsilon, QuadratureFailure
from nodal_theta.inversion import (
    DMap,
    corrected_shift,
    d_map,
    d_map_corrected,
    kappa_vector,
    riemann_constants,
    sample_generic_c,
)
from nodal_theta.theta import TWO_PI_I, big_theta, theta_char
from oracles import d2_dc2

EPS_SEL = 0.05  # pinned outcome of select_epsilon on the shipped configs


def frac_norm(x: complex) -> float:
    return abs(x - round(x.real))


def assert_moves_match_walk(spec, c, eps):
    """select_epsilon's closed-form moves x = _period_moves/(2 pi i) against
    the walked moves d2(c2 + s) - d2(c2) of DMap.d2, its dual route: they
    agree mod 1, and |x| never exceeds the walked move."""
    closed = _period_moves(spec, c, eps) / TWO_PI_I
    for j, e in enumerate(eps):
        dm = DMap(spec, c[0], e)
        base = dm.d2(c[1])
        walked = np.array([dm.d2(c[1] + s) - base for s in _PERIOD_FRACTIONS])
        assert np.all(np.abs(closed[:, j]) <= np.abs(walked) + 1e-12)
        assert max(frac_norm(w - x) for w, x in zip(walked, closed[:, j])) < 1e-12


@pytest.fixture(scope="module")
def kappa_a(spec_a):
    return kappa_vector(riemann_constants(spec_a, EPS_SEL), spec_a, "half_tau")


class TestSelectEpsilon:
    def test_first_candidate_accepted_config_a(self, spec_a):
        # regression-pinned outcome for the shipped candidate list
        assert select_epsilon(spec_a, [0.05, 0.04, 0.03]) == 0.05

    def test_u20_radius_covers_candidates(self, spec_a):
        r = estimate_u20_radius(spec_a)
        assert r > 0.05

    def test_integer_shift_is_always_a_period(self, spec_ab):
        rng = np.random.default_rng(5)
        c, _ = sample_generic_c(spec_ab, rng)
        for eps in (0.05, 0.04):
            a = d_map(eps, c, spec_ab)
            b = d_map(eps, (c[0], c[1] + 1.0), spec_ab)
            assert abs(a[1] - b[1]) < 1e-10 * max(1.0, abs(a[1]))

    def test_half_shift_separates(self, spec_ab):
        rng = np.random.default_rng(7)
        c, _ = sample_generic_c(spec_ab, rng)
        a = d_map(EPS_SEL, c, spec_ab)
        b = d_map(EPS_SEL, (c[0], c[1] + 0.5), spec_ab)
        assert abs(a[1] - b[1]) > 1e-4

    def test_no_valid_epsilon_raises(self, spec_a):
        with pytest.raises(NoValidEpsilon):
            # spec.eps is never usable: the determinant scan starts at 0.95 * spec.eps
            select_epsilon(spec_a, [spec_a.eps])

    def test_rational_period_rejects_a_radius(self, cfg_ab):
        # at eps = 1e-4 the term eps alpha1 e(c2) of f(eps) is too small for
        # any shift of c2 to move d2 by _SEP_TOL
        spec, cand0 = cfg_ab.spec, cfg_ab.eps_candidates[0]
        assert select_epsilon(spec, [1e-4, cand0]) == cand0
        with pytest.raises(NoValidEpsilon, match="show a rational period"):
            select_epsilon(spec, [1e-4])

    def test_closed_form_moves_match_the_walk(self, cfg_ab):
        # the draws of c that select_epsilon makes at its default seed
        spec = cfg_ab.spec
        rng = np.random.default_rng(1106)
        estimate_u20_radius(spec, rng)
        for _ in range(_SELECT_N_C):
            assert_moves_match_walk(spec, sample_generic_c(spec, rng)[0], np.array(cfg_ab.eps_candidates))

    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
        q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
        c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_closed_form_moves_match_the_walk_on_generated_specs(self, tau, q0, coords, c):
        tau, q0 = complex(*tau), complex(*q0)
        p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
        try:
            spec = NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
        except ValueError:
            assume(False)
        c = (c[0] + c[1] * tau, complex(c[2], c[3]))
        try:
            assert_moves_match_walk(spec, c, np.array([spec.eps / 2, spec.eps / 4]))
        except (DegenerateC, ContourThroughZero):
            assume(False)

    # measured 40; walking d2 at c2 and at the nine shifts for each draw and
    # candidate made 160
    PASS_BUDGET = 40

    def test_kernel_pass_budget(self, cfg_ab, kernel_passes, monkeypatch):
        # warm, 40 passes: per draw of c, one chart build and one
        # mobius_coeffs pass in the determinant scan, one chart build and one
        # alpha1_and_G pass in the period test
        spec = cfg_ab.spec
        select_epsilon(spec, cfg_ab.eps_candidates)  # warm-up: per-spec and per-c1 caches

        def refuse(*args, **kwargs):
            raise AssertionError("a log walk of d2 reached")

        monkeypatch.setattr(DMap, "d2", refuse)
        monkeypatch.setattr(quadrature, "_track_edges", refuse)
        kernel_passes.clear()
        assert select_epsilon(spec, cfg_ab.eps_candidates) == cfg_ab.eps_candidates[0]
        assert len(kernel_passes) <= self.PASS_BUDGET


class TestBetaK:
    def test_round_trip_literal(self, spec_ab):
        # u = d(c) + kappa has the preimage c by construction: every draw inverts
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        rng = np.random.default_rng(11)
        for _ in range(3):
            c, _ = sample_generic_c(spec, rng)
            d = d_map(EPS_SEL, c, spec)
            u = (d[0] + kap[0], d[1] + kap[1])
            c_back = beta_k(u, spec, EPS_SEL, use_correction=False, _kappa_cache=kap)
            d_back = d_map(EPS_SEL, c_back, spec)
            assert abs(d_back[1] - (u[1] - kap[1])) < 1e-9
            assert abs(d_back[0] - (u[0] - kap[0])) < 1e-12
            # left inverse up to the integer sheet
            assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_closed_form_identity(self, spec_ab):
        # h3 = d/dt log(t T_c(p2 + t)) on the chart, so exp(H3) is known in
        # closed form, f(eps) = eps T_c(p2 + eps)/c_minus1: the identity the
        # stated inverse is solved from
        rng = np.random.default_rng(19)
        for _ in range(12):
            c, _ = sample_generic_c(spec_ab, rng)
            dm = DMap(spec_ab, c[0], EPS_SEL)
            want = dm.f(dm.eps, c[1])
            assert abs(np.exp(dm.H3(c[1])) - want) < 1e-12 * abs(want)

    def test_stated_inverse_runs_without_quadrature(self, cfg_ab, monkeypatch):
        # d2 and its inverse are closed forms: no integrate_segment on their path
        spec = cfg_ab.spec
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_segment reached")

        monkeypatch.setattr(inversion, "integrate_segment", refuse)
        monkeypatch.setattr(quadrature, "integrate_segment", refuse)
        candidates = cfg_ab.eps_candidates
        assert select_epsilon(spec, candidates) == candidates[0]
        c, _ = sample_generic_c(spec, np.random.default_rng(11))
        d = d_map(EPS_SEL, c, spec)
        c_back = beta_k((d[0] + kap[0], d[1] + kap[1]), spec, EPS_SEL, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_preimage_inside_the_cut_reach(self, spec_b):
        # |e(-c2)| = 0.109 lies inside the reach of the cut (0.257), where
        # the former trust-region Newton search diverged
        eps = 0.04
        kap = kappa_vector(riemann_constants(spec_b, eps), spec_b, "half_tau")
        u = (0.7059590429868869 + 0.05188252772662516j, 0.3597683344481428 - 0.07903089891655135j)
        c = beta_k(u, spec_b, eps, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c[1] - (0.05708958941645002 - 0.35243719946798296j)) < 1e-9

    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
        q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
        c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_round_trip_literal_on_generated_specs(self, tau, q0, coords, c):
        tau, q0 = complex(*tau), complex(*q0)
        p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
        try:
            spec = NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
        except ValueError:
            assume(False)
        c = (c[0] + c[1] * tau, complex(c[2], c[3]))
        eps = spec.eps / 2
        kap = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
        try:
            d = d_map(eps, c, spec)
        except (DegenerateC, QuadratureFailure):
            assume(False)
        u = (d[0] + kap[0], d[1] + kap[1])
        c_back = beta_k(u, spec, eps, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_round_trip_corrected_mod_sheet(self, spec_ab):
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        rng = np.random.default_rng(13)
        c, _ = sample_generic_c(spec, rng)
        d = d_map_corrected(EPS_SEL, c, spec)
        u = (d[0] + kap[0], d[1] + kap[1])
        c_back = beta_k(u, spec, EPS_SEL, use_correction=True, _kappa_cache=kap)
        d_back = d_map_corrected(EPS_SEL, c_back, spec)
        assert frac_norm(d_back[1] - (u[1] - kap[1])) < 1e-9
        assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_sheets_differ_by_unit_step(self, spec_ab, request):
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        u = (0.25 + 0.15j, 0.4 + 0.1j)
        vals = []
        for k in (-3, -2, -1, 0, 1, 2, 3):
            c = beta_k(u, spec, EPS_SEL, k=k, _kappa_cache=kap)
            vals.append(c)
        for i in range(len(vals) - 1):
            assert vals[i + 1][0] == vals[i][0]
            assert abs(vals[i + 1][1] - vals[i][1] - 1.0) < 1e-9

    def test_newton_quadratic_convergence(self, spec_a, kappa_a):
        # log the iterates: once within the basin the error roughly squares
        spec = spec_a
        rng = np.random.default_rng(17)
        c, _ = sample_generic_c(spec, rng)
        d = d_map(EPS_SEL, c, spec)
        u = (d[0] + kappa_a[0], d[1] + kappa_a[1])
        c_star = beta_k(u, spec, EPS_SEL, use_correction=False, _kappa_cache=kappa_a)
        dm = DMap(spec, c_star[0], EPS_SEL)
        errs = []
        c2 = c_star[1] + 0.05
        for _ in range(5):
            F = dm.d2(c2) - (u[1] - kappa_a[1])
            c2 = c2 - F / d2_dc2(dm, c2)
            errs.append(abs(c2 - c_star[1]))
        # quadratic tail: error ratio e_{n+1}/e_n^2 stays bounded
        for i in (1, 2):
            if errs[i] > 1e-14 and errs[i + 1] > 1e-15:
                assert errs[i + 1] / errs[i] ** 2 < 1e4


def grid_points(spec, n=6, margin=0.02):
    """The first curve-point grid of the thm66 suite."""
    pts = []
    for s in np.linspace(0.08, 0.92, n):
        for t in np.linspace(0.08, 0.92, n):
            P = spec.point(s, t)
            if abs(P - spec.p1) > spec.delta + margin and abs(P - spec.p2) > spec.eps + margin:
                pts.append(P)
    return pts


def assert_finding_3(spec, eps):
    """The corrected zero-set check is one value: kappa2 + sigma does not
    depend on the radius, Theta(kappa1, kappa2 + sigma) vanishes, and the
    corrected residual reads that value at every thm66 grid point."""
    r1, r2, _ = derive_periods(spec)
    shifted = [riemann_constants(spec, e).kappa2 + corrected_shift(spec, e) for e in eps * np.array([1, 0.8, 0.6, 0.2])]
    assert max(abs(x - shifted[0]) for x in shifted) < 1e-14
    kap = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    value = abs(big_theta(kap[0], kap[1] + corrected_shift(spec, eps), spec.tau, r1, r2))
    assert value <= 1e-12 * abs(theta_char((0.0, 0.0), kap[0], spec.tau))
    checked = 0
    for P in grid_points(spec):
        try:
            residual = zero_set_residual(P, spec, eps, _kappa_cache=kap)
        except DegenerateC:
            continue
        assert abs(residual - value) < 1e-13
        checked += 1
    assert checked


class TestZeroSet:
    def test_finding_3_is_one_identity(self, spec_ab):
        assert_finding_3(spec_ab, EPS_SEL)

    @given(
        tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
        q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
    )
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_finding_3_is_one_identity_on_generated_specs(self, tau, q0, coords):
        tau, q0 = complex(*tau), complex(*q0)
        p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
        try:
            spec = NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
        except ValueError:
            assume(False)
        assert_finding_3(spec, spec.eps / 2)

    def test_corrected_routes_build_no_chart(self, cfg_ab, kernel_passes, monkeypatch):
        # a corrected residual at a fresh point makes 3 kernel passes: phi2,
        # the genericity guard and Theta; a chart would add its own pass
        spec = cfg_ab.spec
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        P0, P1 = grid_points(spec)[:2]
        inversion._guard_thetas.cache_clear()  # so that P1's shift c1 is fresh
        zero_set_residual(P0, spec, EPS_SEL, _kappa_cache=kap)  # warm-up: per-spec caches

        def refuse(*args, **kwargs):
            raise AssertionError("a node chart was built")

        monkeypatch.setattr(DMap, "__init__", refuse)
        kernel_passes.clear()
        zero_set_residual(P1, spec, EPS_SEL, _kappa_cache=kap)
        assert len(kernel_passes) == 3
        u = phi(spec, P0).as_tuple()
        c = beta_k(u, spec, EPS_SEL, _kappa_cache=kap)
        d_map_corrected(EPS_SEL, c, spec)

    def test_curve_contained_with_corrected_inverse(self, spec_ab):
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        pts = grid_points(spec)[:20]
        assert len(pts) >= 20
        for P in pts:
            assert zero_set_residual(P, spec, EPS_SEL, _kappa_cache=kap) < 1e-6

    def test_degenerate_shift_at_the_constructed_point(self, spec_ab):
        # c1 = phi1(P) - kappa1 puts theta00(phi1(p1) - c1) = theta00(p1 - P + kappa1)
        # on its zero (1 + tau)/2 at this point of the cell, just outside the
        # thm66 grid box: 0.07+0.69i on config A, 0.976+0.087i on config B
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        P = reduce_to_cell(spec.p1 + kap[0] - (1 + spec.tau) / 2, spec.q0, spec.tau)
        with pytest.raises(DegenerateC, match="phi1\\(p1\\)"):
            zero_set_residual(P, spec, EPS_SEL, _kappa_cache=kap)

    def test_k_independence(self, spec_ab):
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        P = spec.point(0.22, 0.71)
        r0 = zero_set_residual(P, spec, EPS_SEL, k=0, _kappa_cache=kap)
        r1_ = zero_set_residual(P, spec, EPS_SEL, k=1, _kappa_cache=kap)
        assert abs(r0 - r1_) < 1e-9

    def test_curve_not_contained_with_stated_inverse(self, spec_b):
        # the H3-map inverse leaves an order-one residual on curve points:
        # the stated containment does not hold numerically
        spec = spec_b
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        vals = []
        for P in grid_points(spec)[:8]:
            try:
                vals.append(
                    zero_set_residual(P, spec, EPS_SEL, use_correction=False, _kappa_cache=kap)
                )
            except NoPreimage:
                continue
        assert vals and min(vals) > 1e-3

    def test_corrected_containment_is_vacuous(self, spec_ab):
        # the corrected inverse satisfies the containment identically: the
        # residual function does not depend on the second coordinate at all,
        # so off-curve controls cannot separate.  Root cause: r2 - r1*tau
        # equals p1 - p2 exactly, which makes the residual constant in c1 too.
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        P = spec.point(0.37, 0.44)
        u = phi(spec, P).as_tuple()
        u_off = (u[0], u[1] + 0.37 + 0.21j)  # not the image of any curve point
        c_off = beta_k(u_off, spec, EPS_SEL, _kappa_cache=kap)
        r1v, r2v, _ = derive_periods(spec)
        res = abs(big_theta(u_off[0] - c_off[0], u_off[1] - c_off[1], spec.tau, r1v, r2v))
        assert res < 1e-6  # would exceed 1e-3 if the containment were sharp

    def test_r2_minus_r1_tau_reproduces_node_offset(self, spec_ab):
        # algebraic root of the vacuity
        r1v, r2v, _ = derive_periods(spec_ab)
        assert abs((r2v - r1v * spec_ab.tau) - (spec_ab.p1 - spec_ab.p2)) < 1e-14
