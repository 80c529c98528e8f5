"""Working-radius selection, branch inversion of the d-map, and the zero-set
containment check for the curve image.

beta_k inverts the map d(eps) on its k-th sheet: sheets differ by (0, 1) in
c, matching the integer period of the map in c2.  Both readings of the map
invert in closed form.  The stated one reads the node chart
(inversion.StatedChart) of (c1, eps), on which c2 enters only through
w = e(-c2).  On the chart h3 = d/dt log(t*T_c(p2 + t)), so with
G0 = beta_coeff

    exp(H3(eps; c)) = f(eps) = (eps*alpha1(eps)/w + G(eps))/G0.

The stated map d2(c2) = c1*r1 + H3(eps; c)/(2*pi*i) = v therefore forces
f(eps) = e(v - c1*r1), which is linear in 1/w: there is one candidate w*,
and so one candidate c2* mod 1.  The map lands in C^2/Gamma, and Gamma
holds (0, 1), so StatedChart.d2 reads H3 as the principal Log f(eps), and
wherever w* is finite and nonzero c2* is a preimage: d2(c2*) - v is an
integer up to rounding.  The same identity chooses the radius: c2 -> c2 + s
moves d2 by Log(f_s/f_0)/(2*pi*i) mod 1.  The branch-corrected map is the
translation d_corr(eps)(c) = c + (0, sigma(eps)) mod (0, 1) (see
inversion.corrected_shift), so its inverse needs no chart; it is the
corrected inverse that places the curve image inside the zero set of the
generalized theta function, so zero_set_residual uses it by default.

A curve point P makes one kernel pass, shared by both inverses, of the
odd pair, theta00 and theta[-r1;r2], characteristics that no shift
changes: at P, u1 - c1 and the points where the stated chart of
c1 = phi1(P) - kappa1 reads theta00 (inversion._chart_points).  phi2(P)
reads the odd pair at P, Theta theta00 and theta[-r1;r2] at u1 - c1, and
the chart, with the genericity guard among them, theta00 at the rest.
thm66_point is the thm66 suite's one sample: the residual of both
inverses at P from that one pass.
"""
from __future__ import annotations

import numpy as np

from .abel_jacobi import _chart_radius, _node_offsets, _phi2_at, phi1
from .curve import NodalCurveSpec, derive_periods
from .differentials import odd_chars
from .errors import DegenerateC, NewtonDivergence, NoPreimage, NoValidEpsilon
from .inversion import (
    StatedChart,
    _chart_from,
    _chart_points,
    _require_generic,
    corrected_shift,
    kappa_vector,
    riemann_constants,
    sample_generic_c,
    stated_chart,
)
from .theta import TWO_PI_I, big_theta, e_func, theta_chars

# select_epsilon: draws of c, one node chart each per radius; the least
# move of d(eps) under a rational shift
_N_CHARTS, _SEP_TOL = 10, 1e-4
# distance of d2(c2*) - v from an integer below which the stated
# closed-form root is accepted
_NEWTON_TOL = 1e-12

# What a thm66 point may raise: its shift c1 = phi1(P) - kappa1 fails a
# genericity guard.  The CLI skips and counts such points.
THM66_SKIPS = (DegenerateC,)

_PERIOD_FRACTIONS = (
    0.5,
    1.0 / 3.0, 2.0 / 3.0,
    0.25, 0.75,
    0.2, 0.4, 0.6, 0.8,
)


def _period_moves(chart: StatedChart, c2) -> np.ndarray:
    """Log(f_s/f_0) for each shift s in _PERIOD_FRACTIONS, f_s the chart's
    f(eps) at c2 + s: one array of f, no kernel pass."""
    f = chart.f(c2 + np.array((0.0,) + _PERIOD_FRACTIONS))
    return np.log(f[1:] / f[0])


def select_epsilon(spec: NodalCurveSpec, candidates, rng: np.random.Generator | None = None) -> float:
    """First candidate radius whose map d(eps) shows no period in {0} x (Q \\ Z).

    Draws _N_CHARTS generic c.  Candidates outside the chart's radii
    (0, spec.eps] are skipped.  A candidate is kept when
    |x| = |Log(f_s/f_0)/(2*pi*i)| exceeds _SEP_TOL for every s in
    _PERIOD_FRACTIONS and every draw, read from the node chart of the
    draw's c1 at that radius, one pass each.  d2 moves by x + j, j an
    integer that (0, 1) in Gamma absorbs, and |x + j| >= |x| as
    |Re x| <= 1/2.  For s not an integer f_s = f_0 exactly where
    eps alpha1(eps) = 0, so the test measures how far the chart's c2 term
    stands from zero against G(eps).
    """
    rng = np.random.default_rng(1106) if rng is None else rng
    cs = [sample_generic_c(spec, rng)[0] for _ in range(_N_CHARTS)]
    usable = [e for e in candidates if 0 < e <= spec.eps]
    if not usable:
        raise NoValidEpsilon(f"no candidate in the chart's radii (0, {spec.eps:g}]")
    for eps in usable:
        moves = [_period_moves(stated_chart(spec, c1, eps), c2) for c1, c2 in cs]
        if np.all(np.abs(moves) > 2 * np.pi * _SEP_TOL):
            return eps
    raise NoValidEpsilon(f"all candidates {list(candidates)} show a rational period")


def beta_k(u, spec: NodalCurveSpec, eps: float, k: int = 0, use_correction: bool = True,
           _kappa_cache=None) -> tuple[complex, complex]:
    """Inverse of the inversion map on the k-th sheet: the c with
    d(eps)(c) = u - kappa(eps), where consecutive sheets differ by (0, 1).

    Both maps are invariant under c -> c + (0,1), so round trips close
    modulo (0,1), which the period group absorbs and the generalized theta
    function does not see.  With use_correction the branch-corrected map,
    the translation c + (0, sigma(eps)), is inverted with no chart:
    c = (u1 - kappa1, u2 - kappa2 - sigma + k).  Without it, the stated map
    is solved in closed form for e(-c2) (see the module docstring) on the
    chart of (c1, eps), from its one pass.  NoPreimage means that e(-c2)
    has no finite nonzero value; otherwise the candidate is a root of the
    computed map mod 1, d2(c2*) - v within _NEWTON_TOL of an integer, and
    NewtonDivergence means it is not, a defect.
    _kappa_cache, the half_tau kappa at eps, adds nothing, since the spec
    keeps riemann_constants per radius; it stays only because the
    benchmark's workloads (perfbench/workloads.py) pass it.
    """
    if _kappa_cache is None:
        _kappa_cache = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    k1, k2 = _kappa_cache
    c1 = complex(u[0]) - k1
    v = complex(u[1]) - k2
    if use_correction:
        sigma = corrected_shift(spec, eps)
        return (_require_generic(spec, c1), complex(v - sigma + k))
    # c2 enters the map only through e(-c2): one chart serves every trial c2
    return _stated_inverse(stated_chart(spec, c1, eps), v, k)


def _stated_inverse(chart: StatedChart, v: complex, k: int) -> tuple[complex, complex]:
    """The stated beta_k on its chart of (c1, eps): the c = (c1, c2) with
    chart.d2(c2) = v mod 1 on sheet k, or NoPreimage or NewtonDivergence
    as beta_k says."""
    # f(eps) = e(v - c1 r1) is linear in 1/w, w = e(-c2)
    num = chart.eps * chart.alpha1
    den = chart.beta_coeff * e_func(v - chart.c1 * chart.r1) - chart.G
    if num == 0 or den == 0:
        raise NoPreimage("the closed-form e(-c2) has no finite nonzero value")
    c2 = complex(-np.log(num / den) / TWO_PI_I) + k
    miss = chart.d2(c2) - v
    miss -= round(miss.real)
    if abs(miss) >= _NEWTON_TOL:
        raise NewtonDivergence(f"the closed-form root misses d2 = v mod 1 by {abs(miss):.2e}")
    return (chart.c1, c2)


def theta_residual(u, c, spec: NodalCurveSpec) -> float:
    """|Theta(u - c)|, which vanishes where u - c lies in the zero set."""
    r1, r2, _ = derive_periods(spec)
    return abs(big_theta(u[0] - c[0], u[1] - c[1], spec.tau, r1, r2))


def _curve_point(P, spec: NodalCurveSpec, eps: float, _kappa_cache):
    """(u, kappa, chart, residual) at the curve point P, from one kernel
    pass (see the module docstring): u = phi(P), the half_tau kappa at eps,
    the stated chart of c1 = u1 - kappa1, formed as beta_k forms it, and
    residual(c) = |Theta(u - c)| for a c = (c1, c2), as big_theta forms it
    from a scalar pass.  Each value equals its own call's bit for bit
    (theta), and the errors come in the order of phi(P) and then beta_k:
    ValueError outside the cell and PoleAt at p1 and p2, then ValueError
    for a radius outside (0, spec.eps], all before the pass, and
    DegenerateC after it."""
    u1 = phi1(spec, P)
    z = np.array([P], dtype=np.complex128)
    _node_offsets(spec, z)
    if _kappa_cache is None:
        _kappa_cache = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    eps = _chart_radius(spec, eps)
    c1 = u1 - _kappa_cache[0]
    r1, r2, _ = derive_periods(spec)
    points = np.concatenate(([P, u1 - c1], _chart_points(spec, c1, eps)))
    (th1,), (th2,), (th0,), (thr,) = theta_chars(odd_chars(spec) + ((0.0, 0.0), (-r1, r2)), points, spec.tau)
    chart = _chart_from(spec, c1, eps, th0[2:])
    u = (u1, complex(_phi2_at(spec, z, (th1[:1], th2[:1]))[0]))
    theta00, theta_r = complex(th0[1]), complex(thr[1])

    def residual(c):
        return abs(theta00 + theta_r * e_func(u[1] - c[1]))

    return u, _kappa_cache, chart, residual


def zero_set_residual(P, spec: NodalCurveSpec, eps: float, k: int = 0,
                      use_correction: bool = True, _kappa_cache=None) -> float:
    """|Theta(phi(P) - beta_k(phi(P)))|: distance of the curve point's image
    from the zero set cut out by the branch inverses.

    With the branch-corrected inverse this is |Theta(kappa1, kappa2 +
    sigma(eps))| up to rounding at every u (see inversion.corrected_shift),
    and that value vanishes: the zero-set containment holds, but for every
    u, not only for curve images.  The uncorrected inverse leaves an
    order-one residual, which quantifies the branch-cut defect of the
    stated map.  Either makes one kernel pass, which phi2, the genericity
    guard, the stated chart and Theta share (_curve_point), and raises
    the errors of phi(P) and then of beta_k.  The value is independent of
    k because the generalized theta function is invariant under (0, 1).
    _kappa_cache is passed on to beta_k, which says why it stays.
    """
    u, kappa, chart, residual = _curve_point(P, spec, eps, _kappa_cache)
    if use_correction:
        return residual(beta_k(u, spec, eps, k, True, kappa))
    return residual(_stated_inverse(chart, u[1] - kappa[1], k))


def thm66_point(P, spec: NodalCurveSpec, eps: float) -> tuple[float, float | str]:
    """(corrected, stated): the zero_set_residual of the curve point P under
    the corrected and the stated inverse, from one kernel pass
    (_curve_point).  stated is "no_preimage" where e(-c2) has no finite
    nonzero value (NoPreimage) and "diverged" where the root misses
    (NewtonDivergence).  THM66_SKIPS lists what a point raises when its
    shift is not generic."""
    u, kappa, chart, residual = _curve_point(P, spec, eps, None)
    corrected = residual(beta_k(u, spec, eps, 0, True, kappa))
    try:
        stated = residual(_stated_inverse(chart, u[1] - kappa[1], 0))
    except NoPreimage:
        stated = "no_preimage"
    except NewtonDivergence:
        stated = "diverged"
    return corrected, stated
