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
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodal_theta import inversion, theta
from nodal_theta.abel_jacobi import chart_g, divisor_image, e_phi2, phi1, phi2
from nodal_theta.curve import derive_periods, lattice_coords, mod_gamma_decompose, period_group
from nodal_theta.branches import beta_k
from nodal_theta.errors import ContourThroughZero, DegenerateC, NoPreimage, NonConvergent, ZeroCollision
from nodal_theta.differentials import _ELL_SWITCH, odd_chars, third_kind
from nodal_theta import quadrature
from nodal_theta.quadrature import _N0, _QUAD_TOL, _log_change_sampled, integrate_segment, track_log_sampled
from nodal_theta.inversion import (
    THM51_SKIPS,
    ThetaPullback,
    _chart_from,
    _chart_points,
    alpha_dlog_integral,
    beta_dlog_integral,
    branch_correction,
    corrected_shift,
    count_zeros,
    genericity_failure,
    kappa_vector,
    locate_zeros,
    riemann_constants,
    sample_generic_c,
    stated_chart,
    verify_thm51,
)
from nodal_theta.theta import TWO_PI_I, e_func, theta_char, theta_chars
from conftest import GENERATED_SPECS, frac_norm, generated_spec
from oracles import (
    H3,
    branch_correction_tracked,
    beta_coeff,
    c_minus1,
    chart_f,
    chart_factors_four_theta,
    d2_walked,
    h3,
    h3_zero,
    h3_zero_defect,
    h3_zero_no_derivative,
    jacobian_consistency_check,
    literal_residual,
    mobius_coeffs_four_theta,
    pullback_terms,
    value_from_phi,
    winding_number_sampled,
)

EPS_W = 0.03  # working radius used throughout (half the U2 radius)
ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SRC = ROOT / "src"


def generic_tp(spec, seed=101):
    rng = np.random.default_rng(seed)
    c, _ = sample_generic_c(spec, rng)
    return ThetaPullback(c, spec)


def generated_pullback(tau, q0, coords, c):
    """The pullback of a generated spec: tau and q0 as (re, im) pairs, the
    lattice coordinates of p1, p2 and z0 from q0, and c = (c1 in lattice
    coordinates, c2 as (re, im))."""
    spec = generated_spec(tau, q0, coords)
    return ThetaPullback((c[0] + c[1] * spec.tau, complex(c[2], c[3])), spec)


# generated specs whose odd-pair power M (inversion._odd_pair_factor) is 0
# and 1, the only values met on the presets and on random specs
ODD_PAIR_POWER_EXAMPLES = {
    0: dict(tau=(0.01, 1.36), q0=(-0.71, 0.9), coords=[(0.33, 0.43), (0.79, 0.42), (0.54, 0.07)], c=(0.75, 0.54, 0.33, 0.14)),
    1: dict(tau=(-0.2, 0.96), q0=(-0.73, -0.19), coords=[(0.23, 0.29), (0.73, 0.3), (0.49, 0.93)], c=(0.96, 0.72, 0.54, -0.11)),
}


def chart(tp):
    """The stated chart of tp's c1 at the working radius."""
    return stated_chart(tp.spec, tp.c1, EPS_W)


def h3_direct(tp, t):
    """Independent route: T'/T + 1/t straight from the pullback."""
    T, dT = tp.value_and_dvalue(tp.spec.p2 + t)
    return dT / T + 1.0 / t


def H3_to(tp, c2, t):
    """The quadrature of h3 on tp's chart along the straight segment [0, t]."""
    return integrate_segment(lambda s: h3(tp.spec, tp.c1, s, c2), 0.0, complex(t))


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
        for k in range(8):
            t = 1e-5 * cmath.exp(2j * math.pi * k / 8)
            assert abs(t * tp.value(spec_a.p2 + t) - c_minus1(spec_a, tp.c1, tp.c2)) < 1e-4

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

    def test_guard_makes_one_theta00_pass(self, spec_ab, kernel_passes):
        # both guard thetas from one pass of theta00 itself at the two
        # points, on a cold copy of the spec
        spec = dataclasses.replace(spec_ab)
        inversion._guard_thetas(spec, 0.3 + 0.2j)
        assert kernel_passes == [((0.0, 0.0),)]
        # then from the store
        inversion._guard_thetas(spec, 0.3 + 0.2j)
        assert len(kernel_passes) == 1

    def test_the_store_keeps_every_drawn_shift(self, spec_ab, kernel_passes):
        # the spec's guard store keeps each shift for as long as the spec
        # lives: a sample run after 150 draws makes no guard pass for the
        # first of them
        spec = dataclasses.replace(spec_ab)
        rng = np.random.default_rng(402)
        shifts = [sample_generic_c(spec, rng)[0] for _ in range(150)]
        kernel_passes.clear()
        try:
            verify_thm51(shifts[0], spec, eps=EPS_W)
        except THM51_SKIPS:
            pass
        assert len(kernel_passes) > 0
        assert ((0.0, 0.0),) not in kernel_passes

    def test_a_copy_of_the_spec_starts_cold(self, spec_ab, kernel_passes):
        # dataclasses.replace gives a value-equal spec with its own, empty
        # store: its first pullback at a shift stored on the original makes
        # the 2-point guard pass
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(403))
        ThetaPullback(c, spec_ab)
        copy = dataclasses.replace(spec_ab)
        assert (copy, hash(copy), repr(copy)) == (spec_ab, hash(spec_ab), repr(spec_ab))
        kernel_passes.clear()
        ThetaPullback(c, spec_ab)
        assert ((0.0, 0.0),) not in kernel_passes
        ThetaPullback(c, copy)
        assert (kernel_passes[:1], kernel_passes.points[:1]) == ([((0.0, 0.0),)], [2])

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

    @pytest.mark.bitwise
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

    @staticmethod
    def assert_matches_four_theta_route(tp, z):
        # the fused sum against the four-theta route (oracles.pullback_terms),
        # within 1e-13 of the larger of T's two terms, or of dT's: where the
        # terms cancel off the cell, the four-theta route itself misses a
        # 40-digit sum of T by up to 1.3e-13 |T| while staying within 1e-14 of
        # its terms
        (a, b), (da, db) = pullback_terms(tp, z)
        T, dT = tp.value_and_dvalue(z)
        assert np.array_equal(T, tp.value(z))
        assert np.all(np.abs(T - (a + b)) <= 1e-13 * np.maximum(1.0, np.maximum(abs(a), abs(b))))
        assert np.all(np.abs(dT - (da + db)) <= 1e-13 * np.maximum(1.0, np.maximum(abs(da), abs(db))))

    @staticmethod
    def near_the_poles(spec):
        ring = np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
        return np.concatenate([p + r * ring for p in (spec.p1, spec.p2) for r in (0.05, 0.01)])

    @pytest.mark.bitwise
    def test_fused_sum_matches_the_four_theta_route(self, spec_ab):
        spec = spec_ab
        u = np.arange(64) / 63
        grid = (spec.q0 + u[:, None] + u[None, :] * spec.tau).ravel()
        # strip shifts q = -1, 0, 1, 2 (q0 = 0 on both presets)
        s, t = np.arange(8) / 8, np.array([-0.45, -0.2, 0.1, 0.4])
        shifted = [(spec.q0 + s[:, None] + (q + t)[None, :] * spec.tau).ravel() for q in (-1, 0, 1, 2)]
        for k in range(3):
            tp = generic_tp(spec, seed=300 + k)
            for z in [grid, *shifted, self.near_the_poles(spec)]:
                self.assert_matches_four_theta_route(tp, z)

    @pytest.mark.bitwise
    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)))
    @example(**ODD_PAIR_POWER_EXAMPLES[0])
    @example(**ODD_PAIR_POWER_EXAMPLES[1])
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_fused_sum_matches_the_four_theta_route_on_generated_specs(self, tau, q0, coords, c):
        try:
            tp = generated_pullback(tau, q0, coords, c)
        except (ValueError, DegenerateC):
            assume(False)
        spec = tp.spec
        u = np.arange(16) / 15
        grid = (spec.q0 + u[:, None] + u[None, :] * spec.tau).ravel()
        for z in (grid, grid - spec.tau, grid + spec.tau, self.near_the_poles(spec)):
            self.assert_matches_four_theta_route(tp, z)

    def test_examples_pin_both_odd_pair_powers(self):
        for power, args in ODD_PAIR_POWER_EXAMPLES.items():
            assert generated_pullback(**args)._power == power

    @staticmethod
    def across_periods(spec):
        # eight cell points shifted by q = -6..6 periods tau: theta00's
        # prefactor e(-w)^Q C(Q) meets 13 strip shifts Q
        cell = spec.q0 + np.array([0.1, 0.35, 0.6, 0.85]) + np.array([[0.2], [0.7]]) * spec.tau
        return (cell.ravel() + np.arange(-6, 7)[:, None] * spec.tau).ravel()

    def test_prefactor_matches_the_four_theta_route_across_periods(self, spec_ab):
        for seed in (101, 102):
            self.assert_matches_four_theta_route(generic_tp(spec_ab, seed), self.across_periods(spec_ab))

    @pytest.mark.bitwise
    def test_values_across_periods_equal_their_scalar_calls(self, spec_ab):
        tp = generic_tp(spec_ab)
        z = self.across_periods(spec_ab)
        T, dT = tp.value_and_dvalue(z)
        V = tp.value(z)
        for i, p in enumerate(z):
            assert tp.value(complex(p)) == V[i]
            assert tp.value_and_dvalue(complex(p)) == (T[i], dT[i])

    def test_odd_pair_power_reads_the_table_or_falls_back(self, spec_ab):
        # e(M w) is row |M| of the block's power table, from its e(-j w) half
        # for M < 0, and x**M past the table's last row.  With M changed, the
        # pass still gives T - theta00 = P_0 e(M w) G S_r S_1/S_2, so it
        # moves by e((M' - M) w); w = z in the strip q = 0
        tp = generic_tp(spec_ab)
        spec = spec_ab
        z = spec.q0 + np.linspace(0.05, 0.95, 16) + 0.02 * spec.tau
        th00 = theta_char(tp._chars[0], z, spec.tau)
        base = tp.value(z) - th00
        n_rows = theta._window_set(tp._chars, spec.tau, (0,)).n_rows
        power = tp._power
        for m in (-n_rows - 1, -n_rows, -2, -1, 0, 1, 2, n_rows - 1, n_rows, n_rows + 2):
            tp._power = m
            want = base * e_func((m - power) * z)
            got = tp.value(z) - th00
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(th00), np.abs(want)))

    def test_one_array_exponential_per_point(self, spec_ab, monkeypatch):
        # the table's e(w) is the pass's only array exponential: theta00's
        # prefactor is e(-w)^Q times a scalar C(Q) per strip shift Q, and
        # e(M w) a row of the table
        spec = spec_ab
        tp = generic_tp(spec)
        u = (np.arange(64) + 0.5) / 64
        grid = spec.q0 + u[:, None] + u[None, :] * spec.tau
        padded = -(-grid.size // theta._COLUMNS) * theta._COLUMNS
        tp.value_and_dvalue(grid)  # warm-up: the windows and the constants C(Q)
        tp.value(grid)
        elements = []
        exp = np.exp

        def counted(x, *args, **kwargs):
            elements.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        for evaluate in (tp.value, tp.value_and_dvalue):
            elements.clear()
            evaluate(grid)
            assert sum(elements) == padded == 4096

    @pytest.mark.parametrize("method", ["value", "value_and_dvalue"])
    def test_memory_is_bounded(self, spec_ab, method):
        # the 12 MiB that theta_char is held to on as many points: the row
        # sums and prefactors live per block of theta._BLOCK points, and the
        # output alone takes 1 MiB per row.  Blocked, the pass peaks at
        # 1.8-3.2 MiB on the presets; unblocked, at 24-31 MiB
        spec = spec_ab
        u = (np.arange(256) + 0.5) / 256
        grid = spec.q0 + u[:, None] + u[None, :] * spec.tau
        evaluate = getattr(generic_tp(spec), method)
        evaluate(grid)  # warm-up: per-spec caches and the windows
        tracemalloc.start()
        try:
            evaluate(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_repeated_calls_build_no_window(self, spec_ab):
        # windows are cached per (a, b, tau), not per derivative order: value
        # builds T_c's four, value_and_dvalue then builds only its window set
        tp = generic_tp(spec_ab)
        z = self.moment_line(spec_ab, 32)

        def builds():
            return theta._window.cache_info().misses, theta._window_set.cache_info().misses

        theta._window.cache_clear()
        theta._window_set.cache_clear()
        tp.value(z)
        assert builds() == (4, 1)
        tp.value_and_dvalue(z)
        assert builds() == (4, 2)
        for _ in range(3):
            tp.value(z)
            tp.value(complex(z[3]))
            tp.value_and_dvalue(z[:5])
        assert builds() == (4, 2)

    def test_new_shifts_build_no_gaussian(self, spec_ab):
        # each new c1 makes new characteristics, and so new windows; each
        # window twists its characteristic's tau-only Gaussian, cached per
        # (a mod 1, tau, centre), so after one pullback 50 new shifts build
        # windows but no Gaussian
        rng = np.random.default_rng(83)
        z = self.moment_line(spec_ab, 32)
        ThetaPullback(sample_generic_c(spec_ab, rng)[0], spec_ab).value_and_dvalue(z)
        windows = theta._window.cache_info().misses
        gaussians = theta._gaussian.cache_info().misses
        for _ in range(50):
            c, _ = sample_generic_c(spec_ab, rng)
            ThetaPullback(c, spec_ab).value_and_dvalue(z)
        assert theta._window.cache_info().misses >= windows + 100
        assert theta._gaussian.cache_info().misses == gaussians

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.nan, math.nan), 0.3 + 1e6j, 0.3 - 1e6j])
    def test_non_finite_and_far_points_raise(self, spec_ab, point):
        # before any strip loop: a NaN strip number never reaches the loop
        # over theta00's strip shifts
        tp = generic_tp(spec_ab)
        for z in (point, np.array([spec_ab.q0 + 0.3, point])):
            for evaluate in (tp.value, tp.value_and_dvalue):
                with pytest.raises(NonConvergent):
                    evaluate(z)

    @pytest.mark.bitwise
    def test_value_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the kernel's one zgemm per block may run on several OpenBLAS
        # threads, and the CLI does not pin their count
        script = tmp_path / "hash_values.py"
        script.write_text(
            "import hashlib\n"
            "import numpy as np\n"
            "from nodal_theta.cli import parse_config\n"
            "from nodal_theta.inversion import ThetaPullback, sample_generic_c\n"
            f"spec = parse_config({str(DEMOS / 'config_b.cfg')!r}).spec\n"
            "c, _ = sample_generic_c(spec, np.random.default_rng(101))\n"
            "tp = ThetaPullback(c, spec)\n"
            "u = (np.arange(256) + 0.5) / 256\n"
            "grid = spec.q0 + u[:, None] + u[None, :] * spec.tau\n"
            "T, dT = tp.value_and_dvalue(grid)\n"
            "print(hashlib.sha256(tp.value(grid).tobytes() + T.tobytes() + dT.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64 and digests[0] == digests[1]

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

    @pytest.mark.bitwise
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

    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_zeros_on_generated_specs(self, tau, q0, coords, c):
        spec = generated_spec(tau, q0, coords)
        try:
            tp = ThetaPullback((c[0] + c[1] * spec.tau, complex(c[2], c[3])), spec)
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
        # Richardson in t: t*T = c_minus1 + h2(0) t + O(t^2)
        t = 1e-5
        v1 = t * tp.value(spec_ab.p2 + t)
        v2 = (t / 2) * tp.value(spec_ab.p2 + t / 2)
        extrap = 2 * v2 - v1
        assert abs(extrap - c_minus1(spec_ab, tp.c1, tp.c2)) < 1e-8

    def test_h3_matches_pullback_log_derivative(self, spec_ab):
        tp = generic_tp(spec_ab)
        for k in range(8):
            t = (EPS_W / 2) * cmath.exp(2j * math.pi * k / 8)
            assert abs(h3(spec_ab, tp.c1, t, tp.c2) - h3_direct(tp, t)) < 1e-8

    def test_h3_zero_closed_form_vs_oracle(self, spec_ab):
        # definition-consistent closed form agrees with the mean-value oracle
        tp = generic_tp(spec_ab)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        assert abs(h3_zero(spec_ab, tp.c1, tp.c2) - oracle) < 1e-8

    def test_h3_zero_short_form_misses_by_the_defect(self, spec_ab):
        # the shorter display formula theta00 e(c2) / (theta_r g0) deviates
        # from the true limit by exactly theta_r'/theta_r + 2*pi*i*h1(0)
        tp = generic_tp(spec_ab)
        oracle = h3_zero_oracle(tp, EPS_W / 2)
        gap = oracle - h3_zero_no_derivative(spec_ab, tp.c1, tp.c2)
        assert abs(gap) > 1e-3
        assert abs(gap - h3_zero_defect(spec_ab, tp.c1)) < 1e-8

    def test_h2_is_pullback_minus_pole(self, spec_ab):
        # the regular part h2 = T_c - c_minus1/t of the pullback at p2 is
        # c_minus1 (f(t) - 1)/t on the chart
        tp = generic_tp(spec_ab)
        cm1 = c_minus1(spec_ab, tp.c1, tp.c2)
        for t in (EPS_W / 2, EPS_W / 3 * cmath.exp(1.2j)):
            direct = tp.value(spec_ab.p2 + t) - cm1 / t
            assert abs(cm1 * (chart_f(spec_ab, tp.c1, t, tp.c2) - 1.0) / t - direct) < 1e-9


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
    """The Moebius form h3 = (A + B e(-c2))/(C + D e(-c2)) of the chart, by
    the four-theta route (oracles.mobius_coeffs_four_theta), against the
    pullback's own T'/T + 1/t and the package's chart."""

    def test_reconstruction_identity(self, spec_ab):
        tp = generic_tp(spec_ab)
        rng = np.random.default_rng(43)
        for _ in range(6):
            t = rng.uniform(0.1, 1.0) * EPS_W * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            A, B, C, D = mobius_coeffs_four_theta(spec_ab, tp.c1, t)
            ec = e_func(-tp.c2)
            recon = (A + B * ec) / (C + D * ec)
            want = h3_direct(tp, t)
            assert abs(recon - want) < 1e-10 * max(1.0, abs(want))

    def test_c_and_b_at_origin(self, spec_ab):
        # C(0) = 0 exactly; B(0) equals the derivative of theta_r(phi1-c1) g
        # at the node (nonzero), the same coefficient behind the h3(0) defect
        spec = spec_ab
        tp = generic_tp(spec)
        A, B, C, D = mobius_coeffs_four_theta(spec, tp.c1, 0.0)
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
        A, B, C, D = mobius_coeffs_four_theta(spec_ab, tp.c1, 0.0)
        # det(0) = A(0) D(0) because C(0) = 0, with D(0) the package
        # chart's G0
        want = theta_char((0.0, 0.0), phi1(tp.spec, tp.spec.p2) - tp.c1, tp.spec.tau) * chart(tp).beta_coeff
        assert abs(A * D - B * C - want) < 1e-10 * abs(want)

    def test_one_kernel_pass(self, spec_ab, kernel_passes):
        # the package's chart reads no Moebius coefficient: one pass of
        # theta00, at x2 + eps, x1 + eps, x1 and x2
        tp = generic_tp(spec_ab)
        chart(tp)  # warm-up: per-spec caches
        kernel_passes.clear()
        chart(tp)
        assert kernel_passes == [((0.0, 0.0),)]
        assert kernel_passes.points == [4]

    def test_chart_reuses_the_pullback_windows(self, spec_ab):
        # the chart's pass reads characteristics that no shift c1 changes:
        # a chart at a shift that no pass has met builds no window
        spec = spec_ab
        rng = np.random.default_rng(37)
        chart(ThetaPullback(sample_generic_c(spec, rng)[0], spec))  # warm-up: per-spec caches
        c, _ = sample_generic_c(spec, rng)
        misses = theta._window.cache_info().misses, theta._window_set.cache_info().misses
        stated_chart(spec, c[0], EPS_W)
        assert (theta._window.cache_info().misses, theta._window_set.cache_info().misses) == misses

    def test_determinant_bounded_below_on_chart(self, spec_ab):
        tp = generic_tp(spec_ab)
        angles = np.exp(2j * np.pi * np.arange(8) / 8)
        dets, scales = [], []
        for rho in (EPS_W, 0.75 * EPS_W, 0.5 * EPS_W, 0.25 * EPS_W, 1e-3 * EPS_W):
            A, B, C, D = mobius_coeffs_four_theta(spec_ab, tp.c1, rho * angles)
            dets.append(np.min(np.abs(A * D - B * C)))
            scales.append(np.max(np.abs(A * D) + np.abs(B * C)))
        assert min(dets) > 1e-6 * max(scales)


def assert_chart_matches_four_theta(spec, c1, eps):
    """The stated chart's alpha1, G and beta_coeff, from theta00 at x2 + eps,
    x1 + eps and x1, against oracles.chart_factors_four_theta at t = eps
    and t = 0, T_c's four thetas at p2 + t each with its own prefactor,
    within 1e-14 of each value's modulus."""
    chart = stated_chart(spec, c1, eps)
    (alpha1, alpha1_0), (G, G0) = chart_factors_four_theta(spec, c1, np.array([eps, 0.0]))
    for name, got, want in (("alpha1", chart.alpha1, alpha1), ("G", chart.G, G), ("beta_coeff", chart.beta_coeff, G0)):
        gap = abs(got - want) / abs(want)
        assert gap <= 1e-14, f"{name}: the plain chart misses the four-theta route by {gap:.2e}"


def shared_pass(spec, c1, eps, z):
    """The pass that a curve point shares (branches._curve_point): the odd
    pair, theta00 and theta[-r1;r2] at the points z and the chart's points;
    returns the chart built from its theta00 and the four rows at z."""
    r1, r2, _ = derive_periods(spec)
    points = np.concatenate((z, _chart_points(spec, complex(c1), eps)))
    rows = [th for th, in theta_chars(odd_chars(spec) + ((0.0, 0.0), (-r1, r2)), points, spec.tau)]
    return _chart_from(spec, complex(c1), eps, rows[2][len(z):]), [row[:len(z)] for row in rows]


def assert_the_end_pass_reads_the_odd_pair(spec, c1, eps, z):
    """The shared pass reads the odd pair at the cell points z as
    theta_chars(odd_chars(spec), z) does, and the chart that it builds
    equals the plain chart's, each by ==."""
    chart, (th1, th2, _, _) = shared_pass(spec, c1, eps, z)
    (want1,), (want2,) = theta_chars(odd_chars(spec), z, spec.tau)
    assert np.array_equal(th1, want1) and np.array_equal(th2, want2)
    assert chart == stated_chart(spec, c1, eps)


class TestFusedChart:
    """The stated chart: its factors against the four-theta route, and the
    bits of its values, which do not depend on the pass they come from or
    on the other points of that pass."""

    def test_matches_the_four_theta_route(self, spec_ab):
        rng = np.random.default_rng(131)
        for _ in range(3):
            c, _ = sample_generic_c(spec_ab, rng)
            for eps in (EPS_W, spec_ab.eps, spec_ab.eps / 7):
                assert_chart_matches_four_theta(spec_ab, c[0], eps)

    @given(**GENERATED_SPECS, c1=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @example(tau=(0.35, 1.15), q0=(0.95, 0.85), coords=[(0.45, 0.65), (0.5, 0.45), (0.9, 0.85)], c1=(0.9, 1.0))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_matches_the_four_theta_route_on_generated_specs(self, tau, q0, coords, c1):
        spec = generated_spec(tau, q0, coords)
        for eps in (spec.eps / 2, spec.eps / 7):
            try:
                assert_chart_matches_four_theta(spec, c1[0] + c1[1] * spec.tau, eps)
            except DegenerateC:
                assume(False)

    @pytest.mark.bitwise
    def test_values_do_not_depend_on_the_batch(self, spec_ab):
        # the chart of one shift from its own pass and from the shared pass
        # with 1 to 33 points before its own, and each of those points'
        # thetas as its own call's
        tp = generic_tp(spec_ab)
        plain = chart(tp)
        r1, r2, _ = derive_periods(spec_ab)
        chars = odd_chars(spec_ab) + ((0.0, 0.0), (-r1, r2))
        rng = np.random.default_rng(29)
        z = spec_ab.q0 + rng.uniform(0.05, 0.95, 33) + rng.uniform(0.05, 0.95, 33) * spec_ab.tau
        singles = [theta_chars(chars, p, spec_ab.tau) for p in z]
        for n in (1, 2, 5, 8, 9, 33):
            got, rows = shared_pass(spec_ab, tp.c1, EPS_W, z[:n])
            assert got == plain
            for i in range(n):
                assert tuple(row[i] for row in rows) == tuple(th for th, in singles[i])

    @pytest.mark.bitwise
    def test_the_ray_ends_at_alpha1_and_G_of_eps(self, spec_ab):
        # alpha1 is theta00 at x2 + eps as its own call gives it, and G and
        # beta_coeff, read from theta00 at x1 + eps and x1, meet
        # theta[-r1;r2] at x2 + eps and x2 times g within rounding
        tp = generic_tp(spec_ab)
        for eps in (EPS_W, spec_ab.eps / 7):
            got = stated_chart(spec_ab, tp.c1, eps)
            x2 = phi1(spec_ab, spec_ab.p2) - tp.c1
            assert got.alpha1 == theta_char((0.0, 0.0), x2 + eps, spec_ab.tau)
            G = theta_char((-tp.r1, tp.r2), x2 + eps, spec_ab.tau) * chart_g(spec_ab, eps)
            assert abs(got.G - G) <= 1e-14 * abs(G)
            assert abs(got.beta_coeff - beta_coeff(spec_ab, tp.c1)) <= 1e-14 * abs(got.beta_coeff)

    @pytest.mark.bitwise
    def test_the_ray_pass_reads_the_odd_pair(self, cfg_ab, preset, cli_rows):
        # the shared pass with 1 to 3 extra points: the zeros of every ok
        # sample of the thm51 suite at its shift c1, and a point within
        # _ELL_SWITCH of the node
        spec = cfg_ab.spec
        rows = [row for row in cli_rows("thm51", preset) if row[1] == "ok"]
        assert len(rows) >= 7
        near = spec.p2 + 0.6 * _ELL_SWITCH * (0.6 + 0.8j)
        for row in rows:
            c1, q1, q2 = (complex(row[i]) for i in (2, 5, 6))
            for z in ([q1, q2], [q2], [q1, near, q2]):
                assert_the_end_pass_reads_the_odd_pair(spec, c1, EPS_W, np.array(z))

    @pytest.mark.bitwise
    @given(**GENERATED_SPECS, c1=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_the_ray_pass_reads_the_odd_pair_on_generated_specs(self, tau, q0, coords, c1, points):
        spec = generated_spec(tau, q0, coords)
        z = np.array([spec.point(s, t) for s, t in points])
        try:
            assert_the_end_pass_reads_the_odd_pair(spec, c1[0] + c1[1] * spec.tau, spec.eps / 2, z)
        except DegenerateC:
            assume(False)

    def test_the_ray_samples_are_the_walks(self, spec_ab, monkeypatch):
        # the log walk of f along the ray [0, eps] (oracles.d2_walked)
        # starts at the _N0 + 1 samples t_j = j eps/_N0 and ends at f(eps):
        # d2 is the walked value less its integer n, also where a zero of
        # T_c just off the ray makes the walk double and read n = 1
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        got = stated_chart(spec_ab, c[0], EPS_W)
        walk = []
        track = quadrature._track_edges
        monkeypatch.setattr(quadrature, "_track_edges", lambda f_vec, edges: track(lambda t: walk.append(t.copy()) or f_vec(t), edges))
        for c2, n in ((c[1], 0), (TestDMap.pole_c2(spec_ab, c[0]) - 0.002, 1)):
            walk.clear()
            walked = d2_walked(spec_ab, c[0], EPS_W, c2)
            assert abs(got.d2(c2) + n - walked) < 1e-13
            assert np.array_equal(walk[0], np.arange(_N0 + 1) / _N0 * complex(EPS_W))
        assert len(walk) > 1


class TestH3Map:
    def test_h3_integral_zero_at_origin(self, spec_a):
        tp = generic_tp(spec_a)
        assert H3_to(tp, tp.c2, 0.0) == 0

    def test_fundamental_theorem(self, spec_ab):
        tp = generic_tp(spec_ab)
        t, h = 0.6 * EPS_W, 1e-6
        fd = (H3_to(tp, tp.c2, t + h) - H3_to(tp, tp.c2, t - h)) / (2 * h)
        want = h3(spec_ab, tp.c1, t, tp.c2)
        assert abs(fd - want) < 1e-6 * max(1.0, abs(want))

    def test_integer_period_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = H3(spec_ab, tp.c1, EPS_W, tp.c2)
        b = H3(spec_ab, tp.c1, EPS_W, tp.c2 + 1.0)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_not_half_periodic_in_c2(self, spec_ab):
        tp = generic_tp(spec_ab)
        a = h3(spec_ab, tp.c1, 0.5 * EPS_W, tp.c2)
        b = h3(spec_ab, tp.c1, 0.5 * EPS_W, tp.c2 + 0.5)
        assert abs(a - b) > 1e-4

    def test_jacobian_dual_route(self, spec_ab):
        tp = generic_tp(spec_ab)
        rel = jacobian_consistency_check(spec_ab, tp.c1, EPS_W, tp.c2)
        assert rel < 1e-6


def assert_d2_meets_its_dual_routes(spec, c1, c2, eps):
    """d2 against its two dual routes, both through the four-theta chart:
    the log walk of f (oracles.d2_walked) mod 1, and the quadrature of h3
    (oracles.H3) as c1 r1 + H3/(2 pi i), mod 1, each within 1e-13."""
    got = stated_chart(spec, c1, eps)
    assert frac_norm(got.d2(c2) - d2_walked(spec, c1, eps, c2)) < 1e-13
    assert frac_norm(got.d2(c2) - got.c1 * got.r1 - H3(spec, c1, eps, c2) / TWO_PI_I) < 1e-13


class TestDMap:
    """The stated map d(eps)(c) = (c1, d2(c2)) on its chart."""

    def test_f_one_kernel_pass(self, spec_ab, kernel_passes):
        # the chart takes its factors from one pass; f at an array of c2
        # makes none and matches the scalar calls
        tp = generic_tp(spec_ab)
        chart(tp)  # warm-up: per-spec caches
        kernel_passes.clear()
        dm = chart(tp)
        assert kernel_passes == [((0.0, 0.0),)]
        c2s = tp.c2 + np.linspace(0.0, 0.9, 10)
        kernel_passes.clear()
        fs = dm.f(c2s)
        assert kernel_passes == []
        scalar = np.array([dm.f(c2) for c2 in c2s])
        assert np.all(np.abs(fs - scalar) <= 1e-15 * np.abs(scalar))

    def test_d2_reads_the_ray(self, spec_ab, kernel_passes):
        # alpha1 and G at the ray's end t = eps are held by the chart: a
        # d2 makes no kernel pass, also at a c2 that puts a zero of T_c on
        # the ray, and gives the value of a fresh chart
        tp = generic_tp(spec_ab)
        dm = chart(tp)
        c2s = (tp.c2, tp.c2 + 0.3, 0.1 - 0.2j, TestDMap.pole_c2(spec_ab, tp.c1))
        kernel_passes.clear()
        values = [dm.d2(c2) for c2 in c2s]
        assert kernel_passes == []
        assert values == [chart(tp).d2(c2) for c2 in c2s]

    def test_first_component_identity(self, spec_a):
        rng = np.random.default_rng(47)
        c, _ = sample_generic_c(spec_a, rng)
        assert stated_chart(spec_a, c[0], EPS_W).c1 == c[0]

    def test_integer_shift_invariance(self, spec_ab):
        rng = np.random.default_rng(53)
        c, _ = sample_generic_c(spec_ab, rng)
        dm = stated_chart(spec_ab, c[0], EPS_W)
        a, b = dm.d2(c[1]), dm.d2(c[1] + 1.0)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_corrected_map_matches_quadrature_route(self, spec_ab):
        # closed form vs H3 quadrature plus tracked branch correction, mod 1
        rng = np.random.default_rng(59)
        c, _ = sample_generic_c(spec_ab, rng)
        tp = ThetaPullback(c, spec_ab)
        quad = chart(tp).d2(tp.c2) + branch_correction_tracked(tp, EPS_W)
        closed = c[1] + corrected_shift(spec_ab, EPS_W)
        diff = quad - closed
        assert abs(diff - round(diff.real)) < 1e-9

    def test_correction_routes_agree_mod_one(self, spec_ab):
        rng = np.random.default_rng(61)
        c, _ = sample_generic_c(spec_ab, rng)
        tp = ThetaPullback(c, spec_ab)
        a = branch_correction(spec_ab, EPS_W, tp.c2, chart(tp).d2(tp.c2))
        b = branch_correction_tracked(tp, EPS_W)
        diff = a - b
        assert abs(diff - round(diff.real)) < 1e-10

    def test_correction_reuses_the_walk_end(self, spec_ab):
        # A = c2 + sigma - d2, with d2 from the chart's end t = eps, against
        # c2 + sigma - c1 r1 - Log f(eps)/(2 pi i) from f(eps) as an array
        dm = chart(generic_tp(spec_ab))
        c2 = 0.3 - 0.1j
        a = branch_correction(spec_ab, EPS_W, c2, dm.d2(c2))
        log_f = np.log(dm.f(np.array([c2])))[0]
        want = c2 + corrected_shift(spec_ab, EPS_W) - dm.c1 * dm.r1 - log_f / TWO_PI_I
        assert abs(a - (want - math.floor(want.real + 0.5))) < 1e-15

    @staticmethod
    def pole_c2(spec, c1, frac=0.37, eps=EPS_W):
        """The c2 that puts a zero of T_c on the chart ray at t = frac * eps."""
        _, _, C, D = mobius_coeffs_four_theta(spec, c1, frac * eps)
        return complex(-cmath.log(-C / D) / TWO_PI_I)

    def test_closed_form_d2_matches_h3_quadrature(self, spec_ab, preset, cli_rows):
        # d2 with its integer, c1 r1 + (Log f(eps) + 2 pi i n)/(2 pi i) from
        # the log walk of f (oracles.d2_walked), against the quadrature of
        # h3, also with a zero of T_c just off the chart ray; at
        # pole_c2 - 0.002 the winding n of f along [0, eps] is 1
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        c1 = c[0]
        r1 = derive_periods(spec_ab)[0]
        pole = self.pole_c2(spec_ab, c1)
        for c2 in (0.0, c[1], 0.3 + 0.1j, 0.77 - 0.2j, pole + 0.05, pole - 0.002):
            assert abs(d2_walked(spec_ab, c1, EPS_W, c2) - (c1 * r1 + H3(spec_ab, c1, EPS_W, c2) / TWO_PI_I)) < 1e-12
        principal = c1 * r1 + np.log(chart_f(spec_ab, c1, EPS_W, pole - 0.002)) / TWO_PI_I
        assert abs(d2_walked(spec_ab, c1, EPS_W, pole - 0.002) - principal - 1) < 1e-12
        # and on every sample that the thm51 suite verifies, within the
        # quadrature's error budget, where d2 is the walked value mod 1: c1
        # and c2 from the sample's row and eps from the summary, whose 17
        # significant digits round-trip exactly
        rows = cli_rows("thm51", preset)
        eps = float(next(cell for cell in rows[-1] if cell.startswith("eps="))[4:])
        samples = [(complex(row[2]), complex(row[3])) for row in rows if row[1] == "ok"]
        assert samples
        for c1, c2 in samples:
            walked = d2_walked(spec_ab, c1, eps, c2)
            assert abs(H3(spec_ab, c1, eps, c2) - TWO_PI_I * (walked - c1 * r1)) <= _QUAD_TOL
            assert frac_norm(stated_chart(spec_ab, c1, eps).d2(c2) - walked) < 1e-12

    def test_d2_meets_its_dual_routes(self, spec_ab):
        # at spec.eps and below _ELL_SWITCH, where chart_g takes its Taylor
        # branch, on shifts that the thm51 suite draws
        rng = np.random.default_rng(2024)
        for _ in range(4):
            c, _ = sample_generic_c(spec_ab, rng)
            for eps in (spec_ab.eps, spec_ab.eps / 7):
                assert_d2_meets_its_dual_routes(spec_ab, c[0], c[1], eps)

    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.25, 0.25)))
    @settings(max_examples=15, derandomize=True, deadline=None)
    def test_d2_meets_its_dual_routes_on_generated_specs(self, tau, q0, coords, c):
        spec = generated_spec(tau, q0, coords)
        c1 = c[0] + c[1] * spec.tau
        for eps in (spec.eps, spec.eps / 7):
            try:
                assert_d2_meets_its_dual_routes(spec, c1, complex(c[2], c[3]), eps)
            except (DegenerateC, ContourThroughZero):
                assume(False)

    def test_zero_on_the_chart_ray_leaves_d2_and_the_stated_inverse_finite(self, spec_ab):
        # a zero of T_c on the ray [0, eps] stops the log walk of f, but
        # not d2, which reads f at t = eps alone, nor the stated inverse
        # at a target whose only candidate is that c2
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        dm = stated_chart(spec_ab, c[0], EPS_W)
        c2 = self.pole_c2(spec_ab, c[0])
        with pytest.raises(ContourThroughZero):
            d2_walked(spec_ab, c[0], EPS_W, c2)
        d2 = dm.d2(c2)
        assert cmath.isfinite(d2)
        kap = kappa_vector(riemann_constants(spec_ab, EPS_W), spec_ab, "half_tau")
        c_back = beta_k((dm.c1 + kap[0], d2 + kap[1]), spec_ab, EPS_W, use_correction=False, _kappa_cache=kap)
        assert frac_norm(c_back[1] - c2) < 1e-9
        assert frac_norm(dm.d2(c_back[1]) - d2) < 1e-12

    def test_no_chart_method_walks_a_log(self, spec_ab, monkeypatch):
        # d2, its inverse and the chart's pass read closed forms: no log
        # walk runs, also at a c2 that puts a zero of T_c on the ray
        kap = kappa_vector(riemann_constants(spec_ab, EPS_W), spec_ab, "half_tau")  # warm: a(eps) walks
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        pole = self.pole_c2(spec_ab, c[0])
        walks = []
        track = quadrature._track_edges
        monkeypatch.setattr(quadrature, "_track_edges", lambda *args: walks.append(args) or track(*args))
        dm = stated_chart(spec_ab, c[0], EPS_W)
        for c2 in (c[1], pole):
            dm.f(c2)
            beta_k((dm.c1 + kap[0], dm.d2(c2) + kap[1]), spec_ab, EPS_W, use_correction=False, _kappa_cache=kap)
        assert walks == []
        assert not hasattr(inversion, "track_log_sampled")

    @pytest.mark.parametrize("eps", [0.05, 0.03])
    def test_quadrature_meets_closed_form_at_fine_tolerance(self, spec_a, eps):
        # the integrand of H3 is the exact log-derivative down to t = 0, so
        # the adaptive rule converges at tol = 1e-12 on a draw where an
        # integrand with a switch near t = 1e-3 could not
        rng = np.random.default_rng(19)
        for _ in range(11):
            c, _ = sample_generic_c(spec_a, rng)
        dm = stated_chart(spec_a, c[0], eps)
        h3_fine = integrate_segment(lambda t: h3(spec_a, c[0], t, c[1]), 0.0, complex(eps), 1e-12)
        assert abs(h3_fine - TWO_PI_I * (dm.d2(c[1]) - dm.c1 * dm.r1)) < 1e-13


def chart_corrected_d2(spec, c, eps):
    """The corrected map's second component on the node chart of (c1, eps),
    the route the translation replaced: c1 r1 + (Log theta00(phi1(p1) - c1)
    - Log c_minus1(c2) + log eps)/(2 pi i)."""
    dm = stated_chart(spec, c[0], eps)
    th = theta_char((0.0, 0.0), phi1(spec, spec.p1) - dm.c1, spec.tau)
    return dm.c1 * dm.r1 + (cmath.log(th) - cmath.log(c_minus1(spec, c[0], c[1])) + math.log(eps)) / TWO_PI_I


class TestCorrectedTranslation:
    def test_translation_matches_the_chart(self, spec_ab):
        # d_corr(eps)(c) = c + (0, sigma(eps)) against the chart formula, mod 1
        rng = np.random.default_rng(97)
        for _ in range(8):
            c, _ = sample_generic_c(spec_ab, rng)
            for eps in (0.05, 0.04, 0.03, 0.02):
                d2 = c[1] + corrected_shift(spec_ab, eps)
                assert frac_norm(d2 - chart_corrected_d2(spec_ab, c, eps)) < 1e-13

    @given(**GENERATED_SPECS, c=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_translation_matches_the_chart_on_generated_specs(self, tau, q0, coords, c):
        spec = generated_spec(tau, q0, coords)
        c = (c[0] + c[1] * spec.tau, complex(c[2], c[3]))
        for eps in (spec.eps / 2, spec.eps / 4):
            try:
                want = chart_corrected_d2(spec, c, eps)
            except DegenerateC:
                assume(False)
            assert frac_norm(c[1] + corrected_shift(spec, eps) - want) < 1e-13

    def test_branch_correction_is_the_reduced_difference(self, spec_ab):
        # A = d_corr - d mod 1, with Re A in [-1/2, 1/2)
        rng = np.random.default_rng(101)
        for _ in range(6):
            c, _ = sample_generic_c(spec_ab, rng)
            d2 = stated_chart(spec_ab, c[0], EPS_W).d2(c[1])
            a = branch_correction(spec_ab, EPS_W, c[1], d2)
            assert -0.5 <= a.real < 0.5
            assert frac_norm(a - (chart_corrected_d2(spec_ab, c, EPS_W) - d2)) < 1e-13

    @pytest.mark.parametrize("factor", [0.0, 2.0])
    def test_radius_outside_the_chart_raises(self, spec_ab, factor):
        spec, eps = spec_ab, factor * spec_ab.eps
        c, _ = sample_generic_c(spec, np.random.default_rng(89))
        kap = kappa_vector(riemann_constants(spec, EPS_W), spec, "half_tau")
        u = (c[0] + kap[0], c[1] + kap[1])
        for call in (
            lambda: stated_chart(spec, c[0], eps),
            lambda: corrected_shift(spec, eps),
            lambda: beta_k(u, spec, eps, _kappa_cache=kap),
            lambda: riemann_constants(spec, eps),
            lambda: beta_k(u, spec, eps),
            lambda: verify_thm51(c, spec, eps),
        ):
            with pytest.raises(ValueError, match=re.escape("chart radius eps must lie in (0, spec.eps]")):
                call()


def assert_corrected_constant(spec):
    """kappa2(eps) + sigma(eps) is, mod 1, the radius-free
    K2 = (-tau/2 - phi1(q0)) r1 + int_alpha phi2 dz + r1 (p2 - z0 + r2) - r1^2 tau/2 - 1/2:
    the log eps of a(eps) and of sigma cancel, and so does Log g(0), up to
    an integer.  Checked at four radii, to rounding at the scale of the
    terms |kappa2| + |sigma|."""
    r1, r2, _ = derive_periods(spec)
    for eps in (spec.eps, spec.eps / 2, spec.eps / 4, 0.01):
        rc = riemann_constants(spec, eps)
        sigma = corrected_shift(spec, eps)
        k2 = (
            (-0.5 * spec.tau - phi1(spec, spec.q0)) * r1
            + rc.alpha_phi2_integral
            + r1 * (spec.p2 - spec.z0 + r2)
            - r1 * r1 * spec.tau / 2
            - 0.5
        )
        assert frac_norm(rc.kappa2 + sigma - k2) <= 1e-14 * (abs(rc.kappa2) + abs(sigma))


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
            c[1] + corrected_shift(spec_ab, eps) + riemann_constants(spec_ab, eps).kappa2
            for eps in (0.05, 0.04, 0.03, 0.01)
        ]
        assert max(abs(s - sums[0]) for s in sums) < 1e-14

    def test_corrected_constant_has_a_closed_form(self, spec_ab):
        assert_corrected_constant(spec_ab)

    @given(**GENERATED_SPECS)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_corrected_constant_has_a_closed_form_on_generated_specs(self, tau, q0, coords):
        assert_corrected_constant(generated_spec(tau, q0, coords))

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
        results, _ = thm51_samples(dataclasses.replace(spec_a), 3, np.random.default_rng(71), eps=EPS_W)
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
    # 8 (a) and 9 (b) while a quadrature panel called its integrand once
    # per Gauss-Legendre rule, 7 (a) and 8 (b) while the sample checked d2
    # against one quadrature of h3, and 6 (a) and 7 (b) while phi2 at the
    # zeros took a 2-point pass of its own apart from the chart's two.  The
    # points of each pass: the cell walk, the zero moments (and a doubling
    # of them on b), the Newton polish, the chart's theta00 at x2 + eps,
    # x1 + eps, x1 and x2 (while the chart read T_c's four thetas at p2 +
    # eps, a pass of beta_coeff's theta at x2 and one of the chart with
    # the two zeros, 1 and 3 points), and phi2's odd pair at the two zeros
    PASS_POINTS = {"a": [132, 32, 2, 4, 2], "b": [132, 32, 64, 2, 4, 2]}

    def test_kernel_pass_budget(self, spec_ab, preset, kernel_passes, monkeypatch):
        # d2 is a closed form: with the Riemann constants of the radius warm,
        # a sample enters no integrate_segment
        rng = np.random.default_rng(101)
        verify_thm51(sample_generic_c(spec_ab, rng)[0], spec_ab, eps=EPS_W)  # warm-up: per-spec caches
        c, _ = sample_generic_c(spec_ab, rng)
        riemann_constants(spec_ab, EPS_W)

        def refuse(*args, **kwargs):
            raise AssertionError("integrate_segment reached")

        monkeypatch.setattr(inversion, "integrate_segment", refuse)
        monkeypatch.setattr(quadrature, "integrate_segment", refuse)
        kernel_passes.clear()
        verify_thm51(c, spec_ab, eps=EPS_W)
        assert kernel_passes.points == self.PASS_POINTS[preset]
        assert kernel_passes[-2:] == [((0.0, 0.0),), odd_chars(spec_ab)]

    def test_a_repeated_sample_repeats_its_passes(self, spec_ab, kernel_passes, monkeypatch):
        # the benchmark's traced run makes each thm51 op twice and requires
        # the same counts both times, the theta_char call of the chart among
        # them: the chart makes its pass on every sample
        rng = np.random.default_rng(101)
        verify_thm51(sample_generic_c(spec_ab, rng)[0], spec_ab, eps=EPS_W)  # warm-up: per-spec caches
        c, _ = sample_generic_c(spec_ab, rng)
        calls = []
        real = inversion.theta_char
        monkeypatch.setattr(inversion, "theta_char", lambda *args: calls.append(args[0]) or real(*args))
        runs = []
        for _ in range(2):
            kernel_passes.clear()
            calls.clear()
            verify_thm51(c, spec_ab, eps=EPS_W)
            runs.append((list(kernel_passes), list(kernel_passes.points), list(calls)))
        assert runs[0] == runs[1]
        assert runs[0][2] == [(0.0, 0.0)]
        assert runs[0][0].count(((0.0, 0.0),)) == 1

    def test_edge_integers_are_those_of_a_fresh_pullback(self, spec_ab, thm51_samples):
        results, _ = thm51_samples(spec_ab, 4, np.random.default_rng(83), eps=EPS_W)
        for r in results:
            tp = ThetaPullback(r.c, spec_ab)
            display = -0.5 * spec_ab.tau - (phi1(spec_ab, spec_ab.q0) - tp.c1)
            assert r.alpha_dlog_winding == round(alpha_dlog_integral(tp).real)
            assert r.beta_dlog_offset == round((beta_dlog_integral(tp) - display).real)

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

    def test_residual_invariant_under_c2_integer_shift(self, spec_a, thm51_samples):
        (r0,), _ = thm51_samples(spec_a, 1, np.random.default_rng(73), eps=EPS_W)
        r1_ = verify_thm51((r0.c[0], r0.c[1] + 1.0), spec_a, eps=EPS_W)
        assert abs(r0.corrected_residual_half_tau - r1_.corrected_residual_half_tau) < 1e-9

    def test_residual_stable_under_gamma_generator_shift(self, spec_a, thm51_samples):
        # c -> c + (1, r1) leaves the pullback unchanged, hence the congruence
        (r0,), _ = thm51_samples(spec_a, 1, np.random.default_rng(79), eps=EPS_W)
        r1v, _, _ = derive_periods(spec_a)
        r1_ = verify_thm51((r0.c[0] + 1.0, r0.c[1] + r1v), spec_a, eps=EPS_W)
        assert r1_.corrected_residual_half_tau < 1e-6
        assert r0.variant_used == r1_.variant_used


def stated_residual_vector(res, spec, eps):
    """W - d(eps)(c) - kappa(eps) of a Thm51Result, the half_tau constant:
    the vector whose norm mod Gamma is residual_half_tau."""
    k1, k2 = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    d2 = stated_chart(spec, res.c[0], eps).d2(res.c[1])
    return res.w[0] - res.c[0] - k1, res.w[1] - d2 - k2


class TestFinding1AcrossRadii:
    """Finding 1 at two radii: the zeros of T_c, and so W, do not depend on
    eps; the stated right side d(eps)(c) + kappa(eps) moves with it by
    (0, -log(eps'/eps)/(2 pi i)) + O(eps), which is not in Gamma, since
    d2 - c1 r1 = Log f(eps)/(2 pi i) tends to 0 and kappa2 carries
    -log(eps)/(2 pi i); the corrected congruence stays closed."""

    # the O(eps) term of the move, over eps: measured at most 1.70 (a) and
    # 2.38 (b) on the CLI's verified shifts, and 3.03 on 12 other shifts
    C_EPS = 5.0

    def test_stated_residual_moves_by_log_16(self, cfg_ab, preset, cli_rows):
        spec, eps = cfg_ab.spec, cfg_ab.eps_candidates[0]
        pg = period_group(spec)
        shifts = [(complex(row[2]), complex(row[3])) for row in cli_rows("thm51", preset) if row[1] == "ok"]
        assert len(shifts) >= 7
        move = -math.log(16.0) / TWO_PI_I
        for c in shifts:
            res, res16 = (verify_thm51(c, spec, e) for e in (eps, eps / 16))
            assert res16.zeros == res.zeros and res16.w == res.w
            (a1, a2), (b1, b2) = (stated_residual_vector(r, spec, e) for r, e in ((res, eps), (res16, eps / 16)))
            gap = mod_gamma_decompose((b1 - a1, b2 - a2 - move), pg).residual_norm
            assert gap <= self.C_EPS * eps
            # the move itself is not in Gamma: the stated miss changes
            assert mod_gamma_decompose((b1 - a1, b2 - a2), pg).residual_norm > 0.1
            assert max(res.corrected_residual_half_tau, res16.corrected_residual_half_tau) < 1e-10
