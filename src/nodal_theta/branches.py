"""Working-radius selection, branch inversion of the d-map, and the zero-set
containment check for the curve image.

beta_k inverts the map d(eps) on its k-th sheet: sheets differ by (0, 1) in
c, matching the integer period of the map in c2.  Both readings of the map
invert in closed form on one node chart (inversion.DMap) of (c1, eps), on
which c2 enters only through w = e(-c2).  On the chart
h3 = d/dt log(t*T_c(p2 + t)), so with G0 = beta_coeff

    exp(H3(eps; c)) = f(eps) = (eps*alpha1(eps)/w + G(eps))/G0.

The stated map d2(c2) = c1*r1 + H3(eps; c)/(2*pi*i) = v therefore forces
f(eps) = e(v - c1*r1), which is linear in 1/w: there is one candidate w*,
and so one candidate c2* mod 1.  The map lands in C^2/Gamma, and Gamma
holds (0, 1), so DMap.d2 reads H3 as the principal Log f(eps), and
wherever w* is finite and nonzero c2* is a preimage: d2(c2*) - v is an
integer up to rounding.  Both read the chart's one pass, alpha1 and G at
t = eps (DMap.end).  The same identity chooses the radius: c2 -> c2 + s
moves d2 by Log(f_s/f_0)/(2*pi*i) mod 1.  The branch-corrected map is the
translation d_corr(eps)(c) = c + (0, sigma(eps)) mod (0, 1) (see
inversion.corrected_shift), so its inverse needs no chart; it is the
corrected inverse that places the curve image inside the zero set of the
generalized theta function, so zero_set_residual uses it by default, at
one kernel pass per point that phi2, the genericity guard and Theta
share.  That pass also holds theta[-r1;r2](phi1(p2) - c1), which the
guard store keeps for the stated chart's beta_coeff.  The stated
zero_set_residual builds its chart from phi1(P) alone, since c1 =
phi1(P) - kappa1 needs no theta, and reads phi2(P) from the chart's pass,
of 2 points.  thm66_point is the thm66 suite's one sample: the residual
of both inverses at P, from the corrected pass, the stated chart's pass
of 1 point, and a Theta pass where the stated inverse has a preimage.
"""
from __future__ import annotations

import numpy as np

from .abel_jacobi import _node_offsets, _phi2_at, phi1
from .curve import NodalCurveSpec, derive_periods
from .differentials import odd_chars
from .errors import DegenerateC, NewtonDivergence, NoPreimage, NoValidEpsilon
from .inversion import DMap, _guards, _require_generic, corrected_shift, kappa_vector, riemann_constants, sample_generic_c
from .theta import TWO_PI_I, big_theta, e_func, theta_chars

# select_epsilon: draws of c, one node chart each; the Moebius determinant
# floor relative to scale; the least move of d(eps) under a rational shift
_N_CHARTS, _U20_DET_FLOOR, _SEP_TOL = 10, 1e-6, 1e-4
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


def estimate_u20_radius(dms) -> float:
    """Largest tested radius on which the Moebius determinant stays bounded
    below by _U20_DET_FLOOR * scale, sampled over circles of the node charts
    dms (DMap objects of one spec, built at any radius)."""
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    for frac in np.linspace(0.95, 0.15, 17):
        r = frac * dms[0].spec.eps
        # one pass per chart: 8 points on each of the circles r, 3r/4, r/2, r/4
        points = np.outer(r * np.array([1.0, 0.75, 0.5, 0.25]), angles)
        A, B, C, D = np.stack([dm.mobius_coeffs(points) for dm in dms], axis=1)
        if np.min(np.abs(A * D - B * C)) > _U20_DET_FLOOR * np.max(np.abs(A * D) + np.abs(B * C)):
            return r
    raise NoValidEpsilon("Moebius determinant bound fails on every tested radius")


def _period_moves(dm: DMap, c2, eps: np.ndarray) -> np.ndarray:
    """Log(f_s/f_0) for each shift s in _PERIOD_FRACTIONS (rows) and radius in
    eps (columns), f_s = dm.f(eps) at c2 + s, from one pass of the chart dm;
    DMap.f does not read the radius dm was built at."""
    f = dm.f(eps, c2 + np.array((0.0,) + _PERIOD_FRACTIONS)[:, None])
    return np.log(f[1:] / f[0])


def select_epsilon(spec: NodalCurveSpec, candidates, rng: np.random.Generator | None = None) -> float:
    """First candidate radius whose map d(eps) shows no period in {0} x (Q \\ Z).

    Draws _N_CHARTS generic c and builds one node chart per draw; both
    tests read those charts.  Candidates at or above their determinant-bound
    radius (estimate_u20_radius) are skipped.  A candidate is kept when
    |x| = |Log(f_s/f_0)/(2*pi*i)| exceeds _SEP_TOL for every s in
    _PERIOD_FRACTIONS and every draw.  d2 moves by x + j, j an integer
    that (0, 1) in Gamma absorbs, and |x + j| >= |x| as |Re x| <= 1/2.
    """
    rng = np.random.default_rng(1106) if rng is None else rng
    cs = [sample_generic_c(spec, rng)[0] for _ in range(_N_CHARTS)]
    dms = [DMap(spec, c1, spec.eps / 2) for c1, _ in cs]
    u20 = estimate_u20_radius(dms)
    usable = [e for e in candidates if 0 < e < u20]
    if not usable:
        raise NoValidEpsilon(
            f"no candidate below the determinant-bound radius {u20:.4g}"
        )
    eps = np.array(usable, dtype=float)
    moves = [_period_moves(dm, c2, eps) for dm, (_, c2) in zip(dms, cs)]
    kept = np.all(np.abs(moves) > 2 * np.pi * _SEP_TOL, axis=(0, 1))
    if kept.any():
        return usable[int(np.argmax(kept))]
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
    is solved in closed form for e(-c2) (see the module docstring) from
    the chart's one pass at t = eps.  NoPreimage means that e(-c2) has no
    finite nonzero value; otherwise the candidate is a root of the
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
    # c2 enters the map only through e(-c2): one DMap serves every trial c2
    return _stated_inverse(DMap(spec, c1, eps), v, k)


def _stated_inverse(dm: DMap, v: complex, k: int) -> tuple[complex, complex]:
    """The stated beta_k on its chart dm of (c1, eps): the c = (c1, c2)
    with dm.d2(c2) = v mod 1 on sheet k, or NoPreimage or NewtonDivergence
    as beta_k says."""
    # f(eps) = e(v - c1 r1) is linear in 1/w, w = e(-c2), with alpha1(eps)
    # and G(eps) from the chart's end, which d2 reads too
    alpha1, G = (complex(x[0]) for x in dm.end())
    num = dm.eps * alpha1
    den = dm.beta_coeff * e_func(v - dm.c1 * dm.r1) - G
    if num == 0 or den == 0:
        raise NoPreimage("the closed-form e(-c2) has no finite nonzero value")
    c2 = complex(-np.log(num / den) / TWO_PI_I) + k
    miss = dm.d2(c2) - v
    miss -= round(miss.real)
    if abs(miss) >= _NEWTON_TOL:
        raise NewtonDivergence(f"the closed-form root misses d2 = v mod 1 by {abs(miss):.2e}")
    return (dm.c1, c2)


def theta_residual(u, c, spec: NodalCurveSpec) -> float:
    """|Theta(u - c)|, which vanishes where u - c lies in the zero set."""
    r1, r2, _ = derive_periods(spec)
    return abs(big_theta(u[0] - c[0], u[1] - c[1], spec.tau, r1, r2))


def _curve_shift(P, spec: NodalCurveSpec, eps: float, _kappa_cache):
    """(u1, z, kappa, c1) at the curve point P: u1 = phi1(P), z = [P], the
    half_tau kappa at eps and the shift c1 = u1 - kappa1, with phi's and
    then riemann_constants' errors, before any pass."""
    u1 = phi1(spec, P)
    z = np.array([P], dtype=np.complex128)
    _node_offsets(spec, z)
    if _kappa_cache is None:
        _kappa_cache = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
    return u1, z, _kappa_cache, u1 - _kappa_cache[0]


def _corrected_point(P, spec: NodalCurveSpec, eps: float, k: int = 0, _kappa_cache=None):
    """(theta_residual(u, beta_k(u)), u), u = phi(P), from one pass at P,
    phi1(p1) - c1, phi1(p2) - c1 and u1 - c1, u1 and c1 formed as beta_k
    forms them: phi2 reads the odd pair at P, the guard (_guard_thetas)
    theta00 at the middle two, and Theta theta00 and theta[-r1;r2] at the
    last.  Each value equals its own call's bit for bit (theta), and the
    errors come in that route's order: ValueError outside the cell and
    PoleAt at p1 and p2 before the pass, DegenerateC after it."""
    u1, z, _kappa_cache, c1 = _curve_shift(P, spec, eps, _kappa_cache)
    r1, r2, _ = derive_periods(spec)
    x = np.array([P, phi1(spec, spec.p1) - c1, phi1(spec, spec.p2) - c1, u1 - c1])
    (th1,), (th2,), (th0,), (thr,) = theta_chars(odd_chars(spec) + ((0.0, 0.0), (-r1, r2)), x, spec.tau)
    _guards(spec)[c1] = (th0[1], th0[2], thr[2])
    u = (u1, complex(_phi2_at(spec, z, (th1[:1], th2[:1]))[0]))
    c = beta_k(u, spec, eps, k, True, _kappa_cache)
    # Theta's sum as big_theta forms it from a scalar pass
    return abs(complex(th0[3]) + complex(thr[3]) * e_func(u[1] - c[1])), u


def zero_set_residual(P, spec: NodalCurveSpec, eps: float, k: int = 0,
                      use_correction: bool = True, _kappa_cache=None) -> float:
    """|Theta(phi(P) - beta_k(phi(P)))|: distance of the curve point's image
    from the zero set cut out by the branch inverses.

    With the branch-corrected inverse this is |Theta(kappa1, kappa2 +
    sigma(eps))| up to rounding at every u (see inversion.corrected_shift),
    and that value vanishes: the zero-set containment holds, but for every
    u, not only for curve images.  phi2, the genericity guard and Theta
    read one kernel pass (_corrected_point).  The uncorrected inverse
    leaves an order-one residual, which quantifies the branch-cut defect of
    the stated map.  Its chart, of c1 = phi1(P) - kappa1, reads phi2(P) in
    its pass of 2 points, t = eps and P, and the guard and beta_coeff read
    the guard store: right after the corrected residual at P that is its
    one pass but for Theta's where it has a preimage.  Its errors are those
    of phi(P) and then beta_k.  The value is independent of k because the
    generalized theta function is invariant under (0, 1).  _kappa_cache is
    passed on to beta_k, which says why it stays.
    """
    if use_correction:
        return _corrected_point(P, spec, eps, k, _kappa_cache)[0]
    u1, z, kappa, c1 = _curve_shift(P, spec, eps, _kappa_cache)
    dm = DMap(spec, c1, eps)
    u = (u1, complex(_phi2_at(spec, z, dm.end(z)[2:])[0]))
    return theta_residual(u, _stated_inverse(dm, u[1] - kappa[1], k), spec)


def thm66_point(P, spec: NodalCurveSpec, eps: float) -> tuple[float, float | str]:
    """(corrected, stated): the zero_set_residual of the curve point P under
    the corrected and the stated inverse, from one phi(P).  phi(P), the
    guard of the shift c1 that both inverses share, the stated chart's
    beta_coeff and the corrected Theta read one kernel pass
    (_corrected_point); the stated inverse's chart reads its pass of 1
    point, t = eps, and its Theta one where it has a preimage, wherever
    e(-c2) is finite and nonzero.  stated is "no_preimage" where it is not
    (NoPreimage) and "diverged" where the root misses (NewtonDivergence).  THM66_SKIPS lists what a point raises
    when its shift is not generic."""
    corrected, u = _corrected_point(P, spec, eps)
    try:
        stated = theta_residual(u, beta_k(u, spec, eps, use_correction=False), spec)
    except NoPreimage:
        stated = "no_preimage"
    except NewtonDivergence:
        stated = "diverged"
    return corrected, stated
