"""Dual routes of the package's quantities, kept as test oracles.

Each function here recomputes a quantity that the package computes by
another route, or reads a display-level fact that no command reports.  The
package does not call them; the tests compare them with the package's
routes.

- the period map: `phi2_chart_p2` continues phi2 into the node disk, and
  `a_eps_bruteforce` and `a_eps_branch_restart` recompute the circle
  average a(eps) from it;
- the theta kernel: `theta_mpmath` sums a theta series or a derivative of
  any order termwise at 40 digits, and `row_sums_elementwise` sums each
  window's terms elementwise, one window at a time, where the package takes
  every window's row sums from one matrix product, and
  `window_coeffs_direct` takes a window's coefficients from one exponential
  of their exponent, where the package twists a cached Gaussian;
- the pullback: `value_from_phi` evaluates T_c through the period map
  instead of the branch-free quotient, and `pullback_terms` sums T_c and
  its derivative from four thetas instead of their combined row sums;
- the node chart of (c1, eps) (`inversion.StatedChart`), at every chart
  point t where the package reads t = eps alone: its factors alpha1 and G
  and the Moebius coefficients of h3 by the four-theta route, the chart
  value `chart_f`, its residue `c_minus1`, `h3` itself, `H3`, the
  quadrature of h3 that is the dual route of `StatedChart.d2`,
  `d2_walked`, the log walk of the chart value that reads d2's integer, the
  criterion-6 facts `h3_zero`, `h3_zero_no_derivative` and
  `h3_zero_defect`, and `d2_dc2` with its finite-difference dual route
  `jacobian_consistency_check`;
- the congruence: `branch_correction_tracked` tracks A(eps, c) along a
  contour, and `literal_residual` reads the best stated-form residual;
- the zero set: `corrected_residual_composed` composes the corrected
  residual from phi, beta_k and theta_residual, a pass each;
- log tracking: the scalar step-halving `track_log` with `winding_number`,
  the sampled `winding_number_sampled`, and `track_edges_resampling`, the
  sampled walk that evaluates every sample again at each doubling.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

from nodal_theta.abel_jacobi import a_eps, chart_g, e_phi2_from, phi, phi1, phi2
from nodal_theta.branches import beta_k, theta_residual
from nodal_theta.curve import NodalCurveSpec, derive_periods
from nodal_theta.differentials import _ELL_SWITCH, third_kind
from nodal_theta.errors import ContourThroughZero, JacobianSingular
from nodal_theta.inversion import ThetaPullback, Thm51Result, _pullback_chars
from nodal_theta.quadrature import (
    _MAX_RATIO_LOG,
    _N0,
    _N_MAX,
    _log_change_sampled,
    _snap_winding,
    integrate_segment,
    track_log_sampled,
)
from nodal_theta.theta import TWO_PI_I, _window, big_theta, e_func, theta_char, theta_chars

# least step of the scalar log tracker
_MIN_STEP = 1e-9
# relative disagreement at which jacobian_consistency_check raises
_JACOBIAN_REL_TOL = 1e-5


# -- the period map at the node ----------------------------------------------


def phi2_chart_p2(spec: NodalCurveSpec, t) -> complex:
    """phi2(p2 + t) = (log g(t) - log t)/(2 pi i) for |t| <= eps.

    The branch starts from the closed-form value at the chart anchor
    t = eps on the positive real axis, continues log g along [eps, t] and
    takes the principal Log t, so it is deterministic for all t off the
    chart's negative real axis.
    """
    t = complex(t)
    a0 = spec.eps
    d_log_g, _ = track_log_sampled(lambda s: chart_g(spec, s), complex(a0), t)
    return phi2(spec, spec.p2 + a0) + (d_log_g - cmath.log(t) + math.log(a0)) / TWO_PI_I


def a_eps_branch_restart(spec: NodalCurveSpec, eps: float, u0: float) -> complex:
    """a_eps recomputed with the branch discarded at angle u0 and restarted
    from the principal chart value there.

    The restart shifts the tail of the integrand by the constant branch gap,
    so the result moves by (gap) * (1 - u0); the gap is an integer because
    both branches continue the same multivalued function.  Probes the
    documented branch sensitivity of the circle average.
    """
    base = a_eps(spec, eps)
    diff = third_kind(spec)
    continued = (
        phi2_chart_p2(spec, eps)
        - u0
        + integrate_segment(
            lambda v: diff.h1_at_p2(eps * np.exp(TWO_PI_I * np.asarray(v)))
            * TWO_PI_I
            * eps
            * np.exp(TWO_PI_I * np.asarray(v)),
            0.0,
            u0,
        )
    )
    restarted = phi2_chart_p2(spec, eps * cmath.exp(2j * math.pi * u0))
    gap = complex(restarted - continued)
    return base + gap * (1.0 - u0)


def a_eps_bruteforce(spec: NodalCurveSpec, eps: float, n: int = 256) -> complex:
    """Direct trapezoid double-quadrature oracle for a_eps (slow)."""
    diff = third_kind(spec)
    base = phi2_chart_p2(spec, eps)
    us = np.linspace(0.0, 1.0, n + 1)
    t = eps * np.exp(TWO_PI_I * us)
    deriv = diff.h1_at_p2(t) * TWO_PI_I * t
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (deriv[1:] + deriv[:-1]) * np.diff(us))))
    phi2_u = base - us + inner
    return np.trapezoid(phi2_u, us)


# -- the theta kernel ------------------------------------------------------------


def theta_mpmath(char, z, tau, k, n_max=30):
    """Independent oracle at 40 digits: termwise k-th derivative summed over
    |n| <= n_max (the tail is below 1e-300 for the arguments used); b may be
    complex."""
    with mpmath.workdps(40):
        b = complex(char[1])
        a, b = mpmath.mpf(char[0]), mpmath.mpc(b.real, b.imag)
        z = mpmath.mpc(z.real, z.imag)
        tau = mpmath.mpc(tau.real, tau.imag)
        total = mpmath.mpc(0)
        for n in range(-n_max, n_max + 1):
            na = n + a
            total += (2j * mpmath.pi * na) ** k * mpmath.exp(
                2j * mpmath.pi * (na * na * tau / 2 + na * (z + b))
            )
        return complex(total)


def row_sums_elementwise(chars, z, tau: complex, orders):
    """(sums, scales): the row sums of theta._row_sums at the points z of a
    1-d array, one row per characteristic and order, and beside each the sum
    of the moduli of the terms that the package's matrix product rounds.
    This is the kernel's route before it took one matrix product per block:
    the same paired table of powers t[j] = (e(j w), e(-j w)), weighted by
    (2 pi i (nk - Q))^k coeffs elementwise and summed down its rows, one
    window at a time.  The scale of order 0 is sum |coeffs t|, that of order
    1 is sum 2 pi (|nk| + |Q|) |coeffs t|, since the package forms order 1
    as M_1 - 2 pi i Q M_0."""
    q = np.rint(z.imag / tau.imag)
    x = np.exp(TWO_PI_I * (z - q * tau))
    windows = [_window(float(a), complex(b), tau) for a, b in chars]
    powers = np.empty((max(len(win[3]) for win in windows), 2, len(z)), dtype=np.complex128)
    powers[0] = 1.0
    powers[1] = x, 1.0 / x
    for j in range(2, len(powers)):
        powers[j] = powers[j - 1] * powers[1]
    sums, scales = [], []
    for _, _, m, nk, coeffs in windows:
        terms = powers[:len(nk)] * coeffs
        shift = q - m
        for k in orders:
            sums.append((terms * (TWO_PI_I * (nk - shift)) ** k).reshape(-1, len(z)).sum(axis=0))
            weight = 2 * math.pi * (np.abs(nk) + np.abs(shift)) if k else 1.0
            scales.append((np.abs(terms) * weight**k).reshape(-1, len(z)).sum(axis=0))
    return np.array(sums), np.array(scales)


def window_coeffs_direct(a: float, b: complex, tau: complex):
    """The coefficients of theta._window(a, b, tau), e(nk^2 tau/2 + nk beta)
    with the duplicate centre entry weighted 0, from one exponential of the
    whole exponent: the kernel's route before it twisted a cached tau-only
    Gaussian by e(nk beta)."""
    _, beta, _, nk, _ = _window(a, b, tau)
    coeffs = np.exp(TWO_PI_I * (0.5 * nk * nk * tau + nk * beta))
    coeffs[0, 1] = 0.0
    return coeffs


# -- the pullback and its node chart -------------------------------------------


def value_from_phi(tp: ThetaPullback, P):
    """T_c(P) through the tracked period map."""
    spec = tp.spec
    return big_theta(phi1(spec, P) - tp.c1, phi2(spec, P) - tp.c2, spec.tau, tp.r1, tp.r2)


def pullback_terms(tp: ThetaPullback, z):
    """The two terms of T_c and of dT_c/dz at the points z of a 1-d array,
    by the four-theta route: ((theta00, theta_r e(phi2 - c2)), (theta00',
    (theta_r' + 2 pi i eta theta_r) e(phi2 - c2))), with all four thetas and
    their derivatives from one theta_chars pass, e(phi2) from e_phi2_from
    and eta from eta_from.  The package sums T_c from the row sums of the
    same four thetas, with their automorphy prefactors combined
    (inversion.ThetaPullback)."""
    spec = tp.spec
    (th0, th0p), (thr, thrp), odd1, odd2 = theta_chars(tp._chars, z, spec.tau, (0, 1))
    eta = third_kind(spec).eta_from(z, odd1, odd2)
    ew = e_phi2_from(spec, z, odd1[0], odd2[0]) * e_func(-tp.c2)
    return (th0, thr * ew), (th0p, (thrp + TWO_PI_I * eta * thr) * ew)


def _chart_points(t):
    """t as a 1-d complex array, and whether t was a scalar."""
    t = np.asarray(t, dtype=np.complex128)
    return t.reshape(-1), t.ndim == 0


def _as_given(values, scalar):
    return tuple(complex(v[0]) for v in values) if scalar else values


def chart_factors_four_theta(spec: NodalCurveSpec, c1, t):
    """(alpha1, G) = (theta00(x2 + t), theta[-r1;r2](x2 + t) g(t)), x2 =
    phi1(p2) - c1, at a chart point t or a 1-d array of them by the
    four-theta route: T_c's four thetas at p2 + t (inversion._pullback_chars)
    from one theta_chars pass, each with its own automorphy prefactor, and
    g = t e(phi2(p2 + t)) from the odd pair through e_phi2_from with
    theta11(t) read as theta11(t)/t.  The package reads the chart at
    t = eps alone, from theta00 at x2 + eps, x1 + eps and x1
    (inversion._chart_from)."""
    t, scalar = _chart_points(t)
    (a1,), (th,), (th1,), (th2,) = theta_chars(_pullback_chars(spec, complex(c1)), spec.p2 + t, spec.tau)
    return _as_given((a1, th * e_phi2_from(spec, spec.p2 + t, th1, third_kind(spec).odd_over_t(t, th2))), scalar)


def mobius_coeffs_four_theta(spec: NodalCurveSpec, c1, t):
    """(A, B, C, D) = (alpha1 + t alpha1', G', t alpha1, G), so that
    h3 = (A + B e(-c2)) / (C + D e(-c2)) with nothing divided by t, at a
    chart point t or a 1-d array of them by the four-theta route: alpha1
    and theta_r with their derivatives from one theta_chars pass,
    G' = (theta_r' + 2 pi i h1 theta_r) g, and h1 = (ell(p2 - p1 + t) -
    ell(t) + 1/t)/(2 pi i) + kappa_coeff from the same pass's odd pair,
    with ell(t) - 1/t from theta11's Taylor series for small |t|."""
    t, scalar = _chart_points(t)
    diff = third_kind(spec)
    (a1, a1p), (th, thp), odd1, (th2, th2p) = theta_chars(_pullback_chars(spec, complex(c1)), spec.p2 + t, spec.tau, (0, 1))
    small = np.abs(t) < _ELL_SWITCH
    reg = np.empty_like(t)
    reg[~small] = th2p[~small] / th2[~small] - 1.0 / t[~small]
    reg[small] = diff._odd_series(t[small])[1]
    h1 = (diff._ell(spec.p2 - spec.p1 + t, *odd1) - reg) / TWO_PI_I + diff.kappa_coeff
    g = e_phi2_from(spec, spec.p2 + t, odd1[0], diff.odd_over_t(t, th2))
    return _as_given((a1 + t * a1p, (thp + TWO_PI_I * h1 * th) * g, t * a1, th * g), scalar)


def _x2_and_rchar(spec: NodalCurveSpec, c1):
    """x2 = phi1(p2) - c1 and the characteristic [-r1; r2] of the chart."""
    r1, r2, _ = derive_periods(spec)
    return phi1(spec, spec.p2) - complex(c1), (-r1, r2)


def beta_coeff(spec: NodalCurveSpec, c1) -> complex:
    """G0 = G(0) = theta[-r1;r2](x2) g(0), from its own theta_char and
    chart_g calls."""
    x2, rchar = _x2_and_rchar(spec, c1)
    return complex(theta_char(rchar, x2, spec.tau) * chart_g(spec, 0.0))


def chart_f(spec: NodalCurveSpec, c1, t, c2):
    """f(t) = t T_c(p2 + t)/c_minus1 = (t alpha1(t) e(c2) + G(t))/G0 at the
    chart points t, f(0) = 1, by the four-theta route; t and c2 broadcast."""
    a1, G = chart_factors_four_theta(spec, c1, t)
    return (np.asarray(t) * a1 * e_func(c2) + G) / beta_coeff(spec, c1)


def c_minus1(spec: NodalCurveSpec, c1, c2) -> complex:
    """Residue of T_c at p2: G(0) e(-c2)."""
    return beta_coeff(spec, c1) * e_func(-complex(c2))


def h3(spec: NodalCurveSpec, c1, t, c2):
    """h3(t; c) = (A + B e(-c2)) / (C + D e(-c2)) from the chart's Moebius
    coefficients (mobius_coeffs_four_theta)."""
    A, B, C, D = mobius_coeffs_four_theta(spec, c1, t)
    w = e_func(-complex(c2))
    return (A + B * w) / (C + D * w)


def H3(spec: NodalCurveSpec, c1, eps, c2) -> complex:
    """Quadrature of h3 along the straight segment [0, eps], the dual route
    of the closed form StatedChart.d2: H3 = 2*pi*i (d2 - c1 r1) up to
    _QUAD_TOL."""
    return integrate_segment(lambda t: h3(spec, c1, t, c2), 0.0, complex(eps))


def d2_walked(spec: NodalCurveSpec, c1, eps, c2) -> complex:
    """The stated map's second component with its integer: c1 r1 +
    (Log f(eps) + 2*pi*i*n)/(2*pi*i), n the winding of f along [0, eps]
    from the continuous log of f (chart_f) tracked from f(0) = 1, whose last
    sample is f(eps).  StatedChart.d2 is the same value mod 1, n dropped.
    Each call of the walk is one four-theta pass at its own points.  Raises
    ContourThroughZero when a zero of T_c lies on that segment."""
    r1, _, _ = derive_periods(spec)
    d, f_eps = track_log_sampled(lambda t: chart_f(spec, c1, t, c2), 0j, complex(eps))
    log_f = complex(np.log(f_eps))
    n = round((d - log_f).imag / (2 * math.pi))
    return complex(c1) * r1 + log_f / TWO_PI_I + n


def h3_zero_defect(spec: NodalCurveSpec, c1) -> complex:
    """Gap between the two closed forms of h3(0; c), G'(0)/G(0) =
    theta_r'/theta_r(x2) + 2*pi*i*h1(0)."""
    x2, rchar = _x2_and_rchar(spec, c1)
    ((th, thp),) = theta_chars((rchar,), x2, spec.tau, (0, 1))
    return complex(thp / th + TWO_PI_I * third_kind(spec).h1_at_p2(0.0))


def h3_zero(spec: NodalCurveSpec, c1, c2) -> complex:
    """h3(0; c) = G'(0)/G(0) + alpha1(0)/(G(0) w) implied by the
    definitions (includes the derivative term)."""
    return h3_zero_no_derivative(spec, c1, c2) + h3_zero_defect(spec, c1)


def h3_zero_no_derivative(spec: NodalCurveSpec, c1, c2) -> complex:
    """Shorter closed form theta00(x2) e(c2) / (theta_r(x2) g(0)); deviates
    from h3_zero by h3_zero_defect."""
    alpha1 = theta_char((0.0, 0.0), _x2_and_rchar(spec, c1)[0], spec.tau)
    return complex(alpha1 * e_func(complex(c2)) / beta_coeff(spec, c1))


def d2_dc2(spec: NodalCurveSpec, c1, eps, c2) -> complex:
    """dH3/dc2 (eps; (c1, c2))/(2*pi*i) = eps alpha1(eps) / (eps alpha1(eps) + w G(eps)),
    with alpha1 and G by the four-theta route."""
    a1, G = chart_factors_four_theta(spec, c1, eps)
    a = eps * a1
    return a / (a + e_func(-complex(c2)) * G)


def jacobian_consistency_check(spec: NodalCurveSpec, c1, eps, c2) -> float:
    """Double-entry check of dH3/dc2 at (c1, c2): the closed form
    2*pi*i*d2_dc2 against a Richardson-extrapolated central difference of
    the H3 quadrature on the same chart.  Returns the relative disagreement
    and raises JacobianSingular beyond _JACOBIAN_REL_TOL."""
    analytic = TWO_PI_I * d2_dc2(spec, c1, eps, c2)
    h = 1e-3
    d1 = (H3(spec, c1, eps, c2 + h) - H3(spec, c1, eps, c2 - h)) / (2 * h)
    d2 = (H3(spec, c1, eps, c2 + h / 2) - H3(spec, c1, eps, c2 - h / 2)) / h
    fd = (4 * d2 - d1) / 3.0
    rel = abs(analytic - fd) / max(1e-30, abs(analytic))
    if rel > _JACOBIAN_REL_TOL:
        raise JacobianSingular(
            f"dH3/dc2 dual-route disagreement {rel:.3e} exceeds {_JACOBIAN_REL_TOL:g}"
        )
    return rel


# -- the congruence ------------------------------------------------------------


def branch_correction_tracked(tp: ThetaPullback, eps: float) -> complex:
    """A(eps, c) by continued-log tracking of T_c from p2+eps to p1 (clockwise
    chart arc to the p1 direction, then the straight ray).  Independent route
    used to validate the closed form; equals branch_correction mod 1."""
    spec = tp.spec
    d_hat = (spec.p1 - spec.p2) / abs(spec.p1 - spec.p2)
    theta_f = cmath.phase(d_hat)
    if theta_f > 0:
        theta_f -= 2 * math.pi
    angs = np.linspace(0.0, theta_f, 49)
    pts = [spec.p2 + eps * cmath.exp(1j * a) for a in angs] + [spec.p1]
    return complex(_log_change_sampled(tp.value, pts) / TWO_PI_I)


def literal_residual(res: Thm51Result) -> float:
    """Best stated-form residual (no branch correction)."""
    return min(res.residual_half_tau, res.residual_full_tau)


def corrected_residual_composed(P, spec: NodalCurveSpec, eps: float, k: int = 0, kappa=None) -> float:
    """|Theta(phi(P) - beta_k(phi(P)))| under the corrected inverse, composed
    from its parts as the package once computed it: phi(P) with phi2's own
    pass, beta_k with the genericity guard's pass, then theta_residual's
    pass of Theta.  The package takes all of them from one pass
    (branches._corrected_point)."""
    u = phi(spec, P)
    return theta_residual(u, beta_k(u, spec, eps, k, True, kappa), spec)


# -- log tracking and winding numbers --------------------------------------------


def track_log(f, a: complex, b: complex, f_a: complex | None = None):
    """Continuous continuation of log f along the segment [a, b].

    Returns (delta_log, f_b): the accumulated change of log f and the value
    f(b).  The first step is 1/_N0 of the segment, as in the sampled
    tracker; steps are halved until each consecutive value ratio satisfies
    |Log ratio| <= _MAX_RATIO_LOG, so the tracked argument never jumps by a
    half turn.  Raises ContourThroughZero when halving bottoms out, which
    indicates f vanishes on or very near the segment.
    """
    f_a = f(a) if f_a is None else f_a
    if f_a == 0:
        raise ContourThroughZero(f"f({a:.6g}) = 0 on contour")
    total = 0.0 + 0.0j
    t = 0.0
    step = 1.0 / _N0
    f_prev = f_a
    while t < 1.0:
        step = min(step, 1.0 - t)
        while True:
            z_next = a + (t + step) * (b - a)
            f_next = f(z_next)
            if f_next != 0:
                ratio = f_next / f_prev
                dlog = cmath.log(ratio)
                if abs(dlog) <= _MAX_RATIO_LOG:
                    break
            if step * abs(b - a) < _MIN_STEP:
                raise ContourThroughZero(
                    f"log tracking stalled near {z_next:.6g}; zero on or near contour"
                )
            step *= 0.5
        total += dlog
        t += step
        f_prev = f_next
        step *= 1.6  # cautious growth after a comfortable step
    return total, f_prev


def track_edges_resampling(f_vec, edges):
    """The dual route of quadrature._track_edges: each round samples every
    pending edge afresh at all n + 1 points a + j (b - a)/n, so a doubling
    evaluates every sample again, and checks the edges one by one."""
    out = [None] * len(edges)
    pending = list(range(len(edges)))
    n = _N0
    while pending:
        ts = np.linspace(0.0, 1.0, n + 1)
        vals = f_vec(np.concatenate([edges[k][0] + ts * (edges[k][1] - edges[k][0]) for k in pending]))
        failed = []
        for k, seg in zip(pending, vals.reshape(len(pending), n + 1)):
            if seg.all():
                dlogs = np.log(seg[1:] / seg[:-1])
                if np.abs(dlogs).max() < _MAX_RATIO_LOG:
                    out[k] = (complex(dlogs.sum()), seg)
                    continue
            if n >= _N_MAX:
                a, b = edges[k]
                raise ContourThroughZero(f"sampled log tracking failed on [{a:.6g}, {b:.6g}] at n={n}")
            failed.append(k)
        pending = failed
        n *= 2
    return out


def _closed(vertices) -> list:
    verts = list(vertices)
    return verts if verts[0] == verts[-1] else verts + [verts[0]]


def winding_number_sampled(f_vec, vertices) -> int:
    """Winding of a vectorized function around 0 along a closed polyline."""
    return _snap_winding(_log_change_sampled(f_vec, _closed(vertices)))


def winding_number(f, vertices) -> int:
    """Winding of f around 0 along the closed polyline `vertices`.

    The continuous log change over a closed contour is 2*pi*i times an
    integer; values farther than 0.1 from an integer signal a zero
    sitting on the contour and raise ContourThroughZero.
    """
    verts = _closed(vertices)
    total, f_cur = 0.0 + 0.0j, f(verts[0])
    for a, b in zip(verts[:-1], verts[1:]):
        d, f_cur = track_log(f, a, b, f_a=f_cur)
        total += d
    return _snap_winding(total)
