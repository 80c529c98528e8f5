"""Radius selection, branch inversion and the zero-set containment picture.

The corrected inverse places the curve image in the zero set at machine
precision but does so through an identity that holds for every argument
(the test pins this vacuity explicitly); the closed-form inverse of the
uncorrected map, read mod (0, 1), leaves an order-one residual on the
curve.  Both facts are asserted, since together
they summarize what the containment statement actually delivers
numerically.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodal_theta import inversion, quadrature, theta
from nodal_theta.abel_jacobi import _chart_g, phi, phi1
from nodal_theta.branches import (
    _PERIOD_FRACTIONS,
    _N_CHARTS,
    _curve_point,
    _period_moves,
    beta_k,
    select_epsilon,
    theta_residual,
    thm66_point,
    zero_set_residual,
)
from nodal_theta.curve import derive_periods, reduce_to_cell
from nodal_theta.differentials import odd_chars
from nodal_theta.errors import (
    ContourThroughZero,
    DegenerateC,
    NewtonDivergence,
    NoPreimage,
    NoValidEpsilon,
    PoleAt,
)
from nodal_theta.inversion import (
    corrected_shift,
    kappa_vector,
    riemann_constants,
    sample_generic_c,
    stated_chart,
)
from nodal_theta.theta import TWO_PI_I, big_theta, theta_char
from conftest import GENERATED_SPECS, frac_norm, generated_spec
from oracles import H3, corrected_residual_composed, d2_dc2, d2_walked

EPS_SEL = 0.05  # pinned outcome of select_epsilon on the shipped configs


def assert_moves_match_walk(spec, c, eps):
    """select_epsilon's closed-form moves x = _period_moves/(2 pi i) against
    the walked moves d2(c2 + s) - d2(c2) of oracles.d2_walked, their dual
    route: they agree mod 1, and |x| never exceeds the walked move."""
    for e in eps:
        closed = _period_moves(stated_chart(spec, c[0], e), c[1]) / TWO_PI_I
        base = d2_walked(spec, c[0], e, c[1])
        walked = np.array([d2_walked(spec, c[0], e, c[1] + s) - base for s in _PERIOD_FRACTIONS])
        assert np.all(np.abs(closed) <= np.abs(walked) + 1e-12)
        assert max(frac_norm(w - x) for w, x in zip(walked, closed)) < 1e-12


@pytest.fixture(scope="module")
def kappa_a(spec_a):
    return kappa_vector(riemann_constants(spec_a, EPS_SEL), spec_a, "half_tau")


class TestSelectEpsilon:
    def test_first_candidate_accepted_config_a(self, spec_a):
        # regression-pinned outcome for the shipped candidate list
        assert select_epsilon(spec_a, [0.05, 0.04, 0.03]) == 0.05

    def test_integer_shift_is_always_a_period(self, spec_ab):
        rng = np.random.default_rng(5)
        c, _ = sample_generic_c(spec_ab, rng)
        for eps in (0.05, 0.04):
            dm = stated_chart(spec_ab, c[0], eps)
            a, b = dm.d2(c[1]), dm.d2(c[1] + 1.0)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_half_shift_separates(self, spec_ab):
        rng = np.random.default_rng(7)
        c, _ = sample_generic_c(spec_ab, rng)
        dm = stated_chart(spec_ab, c[0], EPS_SEL)
        assert abs(dm.d2(c[1]) - dm.d2(c[1] + 0.5)) > 1e-4

    def test_no_valid_epsilon_raises(self, spec_a):
        # a radius past spec.eps is no chart radius; spec.eps itself is one
        with pytest.raises(NoValidEpsilon, match="no candidate in the chart's radii"):
            select_epsilon(spec_a, [2 * spec_a.eps, 0.0])
        assert select_epsilon(spec_a, [2 * spec_a.eps, spec_a.eps]) == spec_a.eps

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
        for _ in range(_N_CHARTS):
            assert_moves_match_walk(spec, sample_generic_c(spec, rng)[0], np.array(cfg_ab.eps_candidates))

    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_closed_form_moves_match_the_walk_on_generated_specs(self, tau, q0, coords, c):
        spec = generated_spec(tau, q0, coords)
        c = (c[0] + c[1] * spec.tau, complex(c[2], c[3]))
        try:
            assert_moves_match_walk(spec, c, np.array([spec.eps / 2, spec.eps / 4]))
        except (DegenerateC, ContourThroughZero):
            assume(False)

    def test_kernel_pass_budget(self, cfg_ab, kernel_passes, monkeypatch):
        # warm, one chart pass per draw of c at the first candidate, which
        # the presets keep: 10 passes.  Walking d2 at c2 and at the nine
        # shifts for each draw and candidate made 160, and a Moebius
        # determinant scan beside the period test 30
        spec = cfg_ab.spec
        select_epsilon(spec, cfg_ab.eps_candidates)  # warm-up: per-spec and per-c1 caches

        def refuse(*args, **kwargs):
            raise AssertionError("a log walk of d2 reached")

        monkeypatch.setattr(quadrature, "_track_edges", refuse)
        kernel_passes.clear()
        assert select_epsilon(spec, cfg_ab.eps_candidates) == cfg_ab.eps_candidates[0]
        assert kernel_passes == [((0.0, 0.0),)] * _N_CHARTS
        assert kernel_passes.points == [4] * _N_CHARTS


class TestBetaK:
    def test_round_trip_literal(self, spec_ab):
        # u = d(c) + kappa has the preimage c by construction: every draw inverts
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        rng = np.random.default_rng(11)
        for _ in range(3):
            c, _ = sample_generic_c(spec, rng)
            dm = stated_chart(spec, c[0], EPS_SEL)
            u = (dm.c1 + kap[0], dm.d2(c[1]) + kap[1])
            c_back = beta_k(u, spec, EPS_SEL, use_correction=False, _kappa_cache=kap)
            d_back = stated_chart(spec, c_back[0], EPS_SEL).d2(c_back[1])
            assert abs(d_back - (u[1] - kap[1])) < 1e-9
            assert abs(c_back[0] - (u[0] - kap[0])) < 1e-12
            # left inverse up to the integer sheet
            assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_stated_inverse_makes_one_chart_pass(self, cfg_ab, kernel_passes):
        # at a c1 that the spec's guard store lacks, with per-spec caches
        # warm: the candidate and d2 read the chart's one pass, which also
        # holds the guard thetas.  A cold copy of the spec, warmed at
        # another target, lacks the shift that the targets were drawn at
        spec = cfg_ab.spec
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        rng = np.random.default_rng(23)
        targets = []
        for _ in range(2):
            c, _ = sample_generic_c(spec, rng)
            targets.append((c[0] + kap[0], stated_chart(spec, c[0], EPS_SEL).d2(c[1]) + kap[1]))
        spec = dataclasses.replace(spec)
        beta_k(targets[0], spec, EPS_SEL, use_correction=False)  # warm-up: per-spec caches
        kernel_passes.clear()
        beta_k(targets[1], spec, EPS_SEL, use_correction=False)
        assert kernel_passes == [((0.0, 0.0),)]

    def test_closed_form_identity(self, spec_ab):
        # h3 = d/dt log(t T_c(p2 + t)) on the chart, so exp(H3) is known in
        # closed form, f(eps) = eps T_c(p2 + eps)/c_minus1: the identity the
        # stated inverse is solved from
        rng = np.random.default_rng(19)
        for _ in range(12):
            c, _ = sample_generic_c(spec_ab, rng)
            want = stated_chart(spec_ab, c[0], EPS_SEL).f(c[1])
            assert abs(np.exp(H3(spec_ab, c[0], EPS_SEL, c[1])) - want) < 1e-12 * abs(want)

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
        dm = stated_chart(spec, c[0], EPS_SEL)
        c_back = beta_k((dm.c1 + kap[0], dm.d2(c[1]) + kap[1]), spec, EPS_SEL, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_preimage_inside_the_cut_reach(self, spec_b):
        # |e(-c2)| = 0.109 lies inside the reach of the cut (0.257), where
        # the former trust-region Newton search diverged
        eps = 0.04
        kap = kappa_vector(riemann_constants(spec_b, eps), spec_b, "half_tau")
        u = (0.7059590429868869 + 0.05188252772662516j, 0.3597683344481428 - 0.07903089891655135j)
        c = beta_k(u, spec_b, eps, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c[1] - (0.05708958941645002 - 0.35243719946798296j)) < 1e-9

    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_round_trip_literal_on_generated_specs(self, tau, q0, coords, c):
        spec = generated_spec(tau, q0, coords)
        c = (c[0] + c[1] * spec.tau, complex(c[2], c[3]))
        eps = spec.eps / 2
        kap = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
        try:
            dm = stated_chart(spec, c[0], eps)
            d2 = dm.d2(c[1])
        except DegenerateC:
            assume(False)
        u = (dm.c1 + kap[0], d2 + kap[1])
        c_back = beta_k(u, spec, eps, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c_back[1] - c[1]) < 1e-9

    def test_round_trip_corrected_mod_sheet(self, spec_ab):
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        rng = np.random.default_rng(13)
        c, _ = sample_generic_c(spec, rng)
        sigma = corrected_shift(spec, EPS_SEL)
        u = (c[0] + kap[0], c[1] + sigma + kap[1])
        c_back = beta_k(u, spec, EPS_SEL, use_correction=True, _kappa_cache=kap)
        assert frac_norm(c_back[1] + sigma - (u[1] - kap[1])) < 1e-9
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
        dm = stated_chart(spec, c[0], EPS_SEL)
        u = (dm.c1 + kappa_a[0], dm.d2(c[1]) + kappa_a[1])
        c_star = beta_k(u, spec, EPS_SEL, use_correction=False, _kappa_cache=kappa_a)
        dm = stated_chart(spec, c_star[0], EPS_SEL)
        errs = []
        c2 = c_star[1] + 0.05
        for _ in range(5):
            F = dm.d2(c2) - (u[1] - kappa_a[1])
            c2 = c2 - F / d2_dc2(spec, c_star[0], EPS_SEL, c2)
            errs.append(abs(c2 - c_star[1]))
        # quadratic tail: error ratio e_{n+1}/e_n^2 stays bounded
        for i in (1, 2):
            if errs[i] > 1e-14 and errs[i + 1] > 1e-15:
                assert errs[i + 1] / errs[i] ** 2 < 1e4


def fused_chars(spec):
    """The characteristics of a curve point's one pass: the odd pair,
    theta00 and theta[-r1;r2] (branches._curve_point)."""
    r1, r2, _ = derive_periods(spec)
    return odd_chars(spec) + ((0.0, 0.0), (-r1, r2))


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
    parts = [(riemann_constants(spec, e).kappa2, corrected_shift(spec, e)) for e in eps * np.array([1, 0.8, 0.6, 0.2])]
    shifted = [k + s for k, s in parts]
    # rounding of a constant, at the scale of the moduli it is summed from
    spread_scale = max(abs(k) + abs(s) for k, s in parts)
    assert max(abs(x - shifted[0]) for x in shifted) < 1e-14 * spread_scale
    kap = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    value = abs(big_theta(kap[0], kap[1] + corrected_shift(spec, eps), spec.tau, r1, r2))
    # both are rounding of zero at the scale of theta00(kappa1), which
    # reaches 130 on generated specs
    scale = abs(theta_char((0.0, 0.0), kap[0], spec.tau))
    assert value <= 1e-12 * scale
    checked = 0
    for P in grid_points(spec):
        try:
            residual = zero_set_residual(P, spec, eps, _kappa_cache=kap)
        except DegenerateC:
            continue
        assert abs(residual - value) < 1e-14 * scale
        checked += 1
    assert checked


class TestZeroSet:
    def test_finding_3_is_one_identity(self, spec_ab):
        assert_finding_3(spec_ab, EPS_SEL)

    @given(**GENERATED_SPECS)
    # misses by 2.2e-13 at |theta00(kappa1)| = 127
    @example(tau=(0.0, 1.25), q0=(0.0, 0.0), coords=[(0.5, 0.5), (0.5, 0.125), (0.5, 0.75)])
    # kappa2 + sigma spreads by 1.08e-14 over the radii at |kappa2| + |sigma| = 1.74 to 2.08
    @example(tau=(0.0, 1.0), q0=(1.0, 0.0), coords=[(0.5, 0.75), (0.9, 0.5), (0.5, 0.5)])
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_finding_3_is_one_identity_on_generated_specs(self, tau, q0, coords):
        spec = generated_spec(tau, q0, coords)
        assert_finding_3(spec, spec.eps / 2)

    def test_corrected_routes_build_no_chart(self, cfg_ab, kernel_passes):
        # a corrected residual at a fresh point makes 1 kernel pass, of the
        # odd pair, theta00 and theta[-r1;r2] at six points: phi2, the
        # genericity guard, Theta and the stated chart share it, so the
        # chart builds no pass of its own; the corrected beta_k and sigma
        # make none
        spec = dataclasses.replace(cfg_ab.spec)  # cold, so that P1's shift c1 is fresh
        P0, P1 = grid_points(spec)[:2]
        zero_set_residual(P0, spec, EPS_SEL)  # warm-up: per-spec data
        kernel_passes.clear()
        zero_set_residual(P1, spec, EPS_SEL)
        assert kernel_passes == [fused_chars(spec)]
        assert kernel_passes.points == [6]
        beta_k(phi(spec, P0), spec, EPS_SEL)
        corrected_shift(spec, EPS_SEL)
        assert len(kernel_passes) == 2  # phi(P0) alone

    @pytest.mark.bitwise
    def test_thm66_point_keeps_the_bits_of_two_residual_calls(self, cfg_ab, preset, cli_rows):
        # on every CLI point: the corrected value, and the stated value or
        # the name of its exception, as two zero_set_residual calls give them
        spec = cfg_ab.spec
        points = [complex(row[1]) for row in cli_rows("thm66", preset) if row[0].isdigit()]
        assert len(points) == 20
        for P in points:
            try:
                stated = zero_set_residual(P, spec, EPS_SEL, use_correction=False)
            except NoPreimage:
                stated = "no_preimage"
            except NewtonDivergence:
                stated = "diverged"
            assert thm66_point(P, spec, EPS_SEL) == (zero_set_residual(P, spec, EPS_SEL), stated)

    def test_thm66_point_takes_phi_once(self, cfg_ab, kernel_passes):
        # with warm caches the two zero_set_residual calls make a pass each,
        # and thm66_point one for both, of the same points; none is a pass
        # of the odd pair alone: phi2 at P comes from the shared pass
        spec = dataclasses.replace(cfg_ab.spec)
        P = grid_points(spec)[1]
        thm66_point(P, spec, EPS_SEL)  # warm-up: per-spec and per-c1 data
        kernel_passes.clear()
        zero_set_residual(P, spec, EPS_SEL)
        zero_set_residual(P, spec, EPS_SEL, use_correction=False)
        two_calls, two_calls_points = list(kernel_passes), list(kernel_passes.points)
        kernel_passes.clear()
        thm66_point(P, spec, EPS_SEL)
        assert two_calls == 2 * kernel_passes == [fused_chars(spec)] * 2
        assert two_calls_points == 2 * kernel_passes.points == [6, 6]
        assert odd_chars(spec) not in two_calls

    def test_stated_route_after_the_corrected_makes_no_guard_pass(self, cfg_ab, kernel_passes):
        # the stated route reads the guard thetas of its shift c1 from its
        # own pass, alone as after the corrected route at the same point
        # (which once stored them for it): one pass either way, and no
        # guard pass.  Each route starts from a cold copy of the spec,
        # warmed at another point
        P0, P1 = grid_points(cfg_ab.spec)[:2]
        counts = []
        for corrected_first in (False, True):
            spec = dataclasses.replace(cfg_ab.spec)
            thm66_point(P0, spec, EPS_SEL)  # warm-up: per-spec data
            if corrected_first:
                zero_set_residual(P1, spec, EPS_SEL)
            kernel_passes.clear()
            zero_set_residual(P1, spec, EPS_SEL, use_correction=False)
            counts.append((kernel_passes.count(((0.0, 0.0),)), len(kernel_passes)))
        assert counts == [(0, 1), (0, 1)]

    def test_thm66_point_makes_one_pass(self, cfg_ab, kernel_passes):
        # at fresh points of a cold copy of the spec, warmed at another:
        # one pass per point, of the odd pair, theta00 and theta[-r1;r2] at
        # P, u1 - c1 and the chart's x2 + eps, x1 + eps, x1 and x2,
        # whichever the outcome of the stated inverse.  phi2, the guard and Theta
        # once took a pass each (5 in all), the stated chart two until its
        # beta_coeff came from the corrected pass (3), and the stated Theta
        # one more until the chart's pass read it
        spec = dataclasses.replace(cfg_ab.spec)
        points = grid_points(spec)[:6]
        thm66_point(points[0], spec, EPS_SEL)  # warm-up: per-spec data
        for P in points[1:]:
            kernel_passes.clear()
            assert isinstance(thm66_point(P, spec, EPS_SEL)[1], float)
            assert kernel_passes == [fused_chars(spec)]
            assert kernel_passes.points == [6]

    def test_a_warm_point_builds_no_window(self, cfg_ab):
        # the pass reads characteristics that no shift c1 changes: at a new
        # point, and so a new shift, it builds no window and no window set
        spec = dataclasses.replace(cfg_ab.spec)
        P0, P1 = grid_points(spec)[:2]
        thm66_point(P0, spec, EPS_SEL)  # warm-up: per-spec data
        misses = theta._window.cache_info().misses, theta._window_set.cache_info().misses
        thm66_point(P1, spec, EPS_SEL)
        assert (theta._window.cache_info().misses, theta._window_set.cache_info().misses) == misses

    def test_stated_residual_after_the_corrected_makes_one_pass(self, cfg_ab, kernel_passes):
        # right after the corrected residual at the same point, the stated
        # one makes its own pass of the odd pair, theta00 and theta[-r1;r2],
        # of 6 points, which phi2 at P, the guard, the chart and Theta read; on
        # the grid every target has a preimage (while d2 walked the log of
        # f, the chart's pass was a 33-sample ray and P, and each doubling
        # of the walk added one; after that, Theta took a pass of its own)
        spec = cfg_ab.spec
        points = grid_points(spec)[:9]
        zero_set_residual(points[0], spec, EPS_SEL)  # warm-up: per-spec caches
        outcome(zero_set_residual, points[0], spec, EPS_SEL, 0, False)
        for P in points[1:]:
            zero_set_residual(P, spec, EPS_SEL)
            kernel_passes.clear()
            got = outcome(zero_set_residual, P, spec, EPS_SEL, 0, False)
            assert isinstance(got, float)
            assert kernel_passes == [fused_chars(spec)]
            assert kernel_passes.points == [6]

    def test_stated_residual_raises_before_its_passes(self, spec_ab, kernel_passes):
        # outside the cell, at p1 and p2 and for a radius outside
        # (0, spec.eps] before any pass, and at a degenerate shift after
        # its one pass, which holds the guard thetas, with the class and
        # message of the route that it replaced: phi(P), then the stated
        # beta_k.  The spec is a cold copy, so its guard store lacks the
        # degenerate shift
        spec = dataclasses.replace(spec_ab)
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        degenerate = reduce_to_cell(spec.p1 + kap[0] - (1 + spec.tau) / 2, spec.q0, spec.tau)
        outcome(zero_set_residual, grid_points(spec)[0], spec, EPS_SEL, 0, False)  # warm-up: per-spec caches

        def replaced(P, eps):
            return beta_k(phi(spec, P), spec, eps, 0, False)

        cases = ((spec.point(-0.25, 0.5), ValueError), (spec.p1, PoleAt), (spec.p2, PoleAt), (degenerate, DegenerateC))
        for P, exc in cases:
            for eps in (EPS_SEL, 2 * spec.eps):
                kernel_passes.clear()
                got = outcome(zero_set_residual, P, spec, eps, 0, False)
                degenerate_case = exc is DegenerateC and eps == EPS_SEL
                assert got[0] is (exc if degenerate_case or exc is not DegenerateC else ValueError)
                # the one pass that reads the guard where the store lacks c1
                assert kernel_passes == ([fused_chars(spec)] if degenerate_case else [])
                assert outcome(replaced, P, eps) == got

    def test_curve_contained_with_corrected_inverse(self, spec_ab):
        spec = spec_ab
        pts = grid_points(spec)[:20]
        assert len(pts) >= 20
        for P in pts:
            assert zero_set_residual(P, spec, EPS_SEL) < 1e-6

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
        P = spec.point(0.22, 0.71)
        r0 = zero_set_residual(P, spec, EPS_SEL, k=0)
        r1_ = zero_set_residual(P, spec, EPS_SEL, k=1)
        assert abs(r0 - r1_) < 1e-9

    @pytest.mark.bitwise
    def test_stated_inverse_reads_the_target_mod_one(self, cfg_ab, preset, cli_rows):
        # Gamma holds (0, 1): at every CLI point u = phi(P), the stated
        # inverse has a preimage at u2 and at u2 + 1, the same c2 mod 1;
        # at u2 its residual is the stated zero_set_residual's, bit for
        # bit, and at u2 + 1 it is the same up to rounding, since
        # e(v + 1) is not e(v) to the bit.  While the map was read with
        # its integer, one of the two had no preimage at every point
        spec = cfg_ab.spec
        points = [complex(row[1]) for row in cli_rows("thm66", preset) if row[0].isdigit()]
        assert len(points) == 20
        for P in points:
            u = phi(spec, P)
            c = beta_k(u, spec, EPS_SEL, use_correction=False)
            shifted = (u[0], u[1] + 1.0)
            c_shifted = beta_k(shifted, spec, EPS_SEL, use_correction=False)
            assert c_shifted[0] == c[0]
            assert frac_norm(c_shifted[1] - c[1]) < 1e-12
            residual = theta_residual(u, c, spec)
            assert residual == zero_set_residual(P, spec, EPS_SEL, use_correction=False)
            assert abs(theta_residual(shifted, c_shifted, spec) - residual) < 1e-12 * max(1.0, residual)

    def test_curve_not_contained_with_stated_inverse(self, spec_b):
        # the H3-map inverse leaves an order-one residual on curve points:
        # the stated containment does not hold numerically
        spec = spec_b
        vals = []
        for P in grid_points(spec)[:8]:
            try:
                vals.append(zero_set_residual(P, spec, EPS_SEL, use_correction=False))
            except NoPreimage:
                continue
        assert vals and min(vals) > 1e-3

    def test_corrected_containment_is_vacuous(self, spec_ab):
        # the corrected inverse satisfies the containment identically: the
        # residual function does not depend on the second coordinate at all,
        # so off-curve controls cannot separate.  Root cause: r2 - r1*tau
        # equals p1 - p2 exactly, which makes the residual constant in c1 too.
        spec = spec_ab
        P = spec.point(0.37, 0.44)
        u = phi(spec, P)
        u_off = (u[0], u[1] + 0.37 + 0.21j)  # not the image of any curve point
        res = theta_residual(u_off, beta_k(u_off, spec, EPS_SEL), spec)
        assert res < 1e-6  # would exceed 1e-3 if the containment were sharp

    def test_r2_minus_r1_tau_reproduces_node_offset(self, spec_ab):
        # algebraic root of the vacuity
        r1v, r2v, _ = derive_periods(spec_ab)
        assert abs((r2v - r1v * spec_ab.tau) - (spec_ab.p1 - spec_ab.p2)) < 1e-14


def outcome(f, *args):
    """f(*args), or the class and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def guard_thetas(spec):
    """The two guard thetas of each shift in the spec's guard store."""
    return {c1: values[:2] for c1, values in inversion._guards(spec).items()}


def assert_one_pass_keeps_the_bits(P, spec, eps, k):
    """The corrected residual from one pass (zero_set_residual) against the
    composed route, each on its own cold copy of the spec, so from an empty
    guard store: the same value or the same exception, and the same stored
    guard thetas."""
    composed, one_pass = dataclasses.replace(spec), dataclasses.replace(spec)
    want = outcome(corrected_residual_composed, P, composed, eps, k)
    assert outcome(zero_set_residual, P, one_pass, eps, k) == want
    assert guard_thetas(one_pass) == guard_thetas(composed)


def assert_stored_beta_coeff_keeps_the_bits(P, spec, eps):
    """The chart that the pass at the curve point P builds, of the shift
    c1 = phi1(P) - kappa1, equals the plain chart of c1 by ==, beta_coeff
    among its fields, which meets theta[-r1;r2](x2) g(0), x2 = phi1(p2) -
    c1, within rounding; and the pass leaves the guard thetas of c1 in the
    store as theta00's own pass gives them.  Returns False, checking
    nothing, at p1, p2 or a shift that is not generic."""
    try:
        _, kap, chart, _ = _curve_point(P, spec, eps, None)
    except (DegenerateC, PoleAt):
        return False
    c1 = phi1(spec, P) - kap[0]
    r1, r2, _ = derive_periods(spec)
    want = theta_char((-r1, r2), phi1(spec, spec.p2) - c1, spec.tau) * _chart_g(spec, 0.0)
    assert chart == stated_chart(spec, c1, eps)
    assert abs(chart.beta_coeff - want) <= 1e-14 * abs(want)
    assert inversion._guard_thetas(spec, c1) == tuple(theta_char((0.0, 0.0), np.array([phi1(spec, spec.p1), phi1(spec, spec.p2)]) - c1, spec.tau))
    return True


class TestOnePassResidual:
    """zero_set_residual's corrected route takes every theta from one pass
    (branches._curve_point); the composed route, a pass each for phi2,
    the genericity guard and Theta, is its oracle
    (oracles.corrected_residual_composed)."""

    @pytest.mark.bitwise
    def test_cli_points_keep_the_bits(self, cfg_ab, preset, cli_rows):
        spec = cfg_ab.spec
        points = [complex(row[1]) for row in cli_rows("thm66", preset) if row[0].isdigit()]
        assert len(points) == 20
        for P in points:
            for k in (0, 1):
                assert_one_pass_keeps_the_bits(P, spec, EPS_SEL, k)

    @pytest.mark.bitwise
    @given(**GENERATED_SPECS, points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=4, max_size=4))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_generated_specs_keep_the_bits(self, tau, q0, coords, points):
        spec = generated_spec(tau, q0, coords)
        for i, (s, t) in enumerate(points):
            assert_one_pass_keeps_the_bits(spec.point(s, t), spec, spec.eps / 2, i % 2)

    @pytest.mark.bitwise
    def test_cli_points_keep_the_bits_of_beta_coeff(self, cfg_ab, preset, cli_rows):
        spec = cfg_ab.spec
        points = [complex(row[1]) for row in cli_rows("thm66", preset) if row[0].isdigit()]
        assert all(assert_stored_beta_coeff_keeps_the_bits(P, spec, EPS_SEL) for P in points)

    @pytest.mark.bitwise
    @given(**GENERATED_SPECS, points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=4, max_size=4))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_generated_specs_keep_the_bits_of_beta_coeff(self, tau, q0, coords, points):
        spec = generated_spec(tau, q0, coords)
        checked = [assert_stored_beta_coeff_keeps_the_bits(spec.point(s, t), spec, spec.eps / 2) for s, t in points]
        assume(any(checked))

    def test_same_exceptions_in_the_same_order(self, spec_ab, kernel_passes):
        # outside the cell and at p1 and p2 the point's own error comes
        # first and before any pass, then a radius outside (0, spec.eps],
        # then DegenerateC after the pass, at the shift of
        # test_degenerate_shift_at_the_constructed_point
        spec = spec_ab
        kap = kappa_vector(riemann_constants(spec, EPS_SEL), spec, "half_tau")
        degenerate = reduce_to_cell(spec.p1 + kap[0] - (1 + spec.tau) / 2, spec.q0, spec.tau)
        zero_set_residual(grid_points(spec)[0], spec, EPS_SEL)  # warm-up: per-spec caches
        cases = ((spec.point(-0.25, 0.5), ValueError), (spec.p1, PoleAt), (spec.p2, PoleAt), (degenerate, DegenerateC))
        for P, exc in cases:
            for eps in (EPS_SEL, 2 * spec.eps):
                kernel_passes.clear()
                got = outcome(zero_set_residual, P, spec, eps)
                passes = len(kernel_passes)
                assert got[0] is (ValueError if exc is DegenerateC and eps != EPS_SEL else exc)
                assert passes == (exc is DegenerateC and eps == EPS_SEL)
                # the composed route on a cold copy makes its own guard pass
                assert outcome(corrected_residual_composed, P, dataclasses.replace(spec), eps) == got
