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
and so one candidate c2* mod 1.  DMap.d2 reads H3 as the continuous log of
f along [0, eps], so d2(c2*) - v is an integer up to rounding, and a
nonzero integer certifies that v has no preimage.  The branch-corrected
map d_corr(eps) (see inversion.branch_correction) is affine in c2 and
inverts from the same chart's branch-cut terms; it is the corrected
inverse that places the curve image inside the zero set of the generalized
theta function, so zero_set_residual uses it by default.
"""

from __future__ import annotations

import numpy as np

from .abel_jacobi import phi
from .curve import NodalCurveSpec, derive_periods
from .errors import ContourThroughZero, NewtonDivergence, NoPreimage, NoValidEpsilon
from .inversion import DMap, kappa_vector, riemann_constants, sample_generic_c
from .theta import TWO_PI_I, big_theta, e_func

# estimate_u20_radius: draws of c1, and the determinant floor relative to scale
_U20_N_C1, _U20_DET_FLOOR = 10, 1e-6
# select_epsilon: draws of c, and the least move of d(eps) under a rational shift
_SELECT_N_C, _SEP_TOL = 10, 1e-4
# |d2(c2*) - v| below which the stated closed-form root is accepted
_NEWTON_TOL = 1e-12

_PERIOD_FRACTIONS = (
    0.5,
    1.0 / 3.0, 2.0 / 3.0,
    0.25, 0.75,
    0.2, 0.4, 0.6, 0.8,
)


def estimate_u20_radius(spec: NodalCurveSpec, rng: np.random.Generator | None = None) -> float:
    """Largest tested radius on which the Moebius determinant stays bounded
    below by _U20_DET_FLOOR * scale, sampled over chart circles and generic c."""
    rng = np.random.default_rng(1905) if rng is None else rng
    cs = [sample_generic_c(spec, rng)[0] for _ in range(_U20_N_C1)]
    dms = [DMap(spec, c[0], spec.eps / 2) for c in cs]
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    best = 0.0
    for frac in np.linspace(0.95, 0.15, 17):
        r = frac * spec.eps
        dets, scales = [], []
        for dm in dms:
            for rho in (r, 0.75 * r, 0.5 * r, 0.25 * r):
                A, B, C, D = dm.mobius_coeffs(rho * angles)
                dets.append(np.min(np.abs(A * D - B * C)))
                scales.append(np.max(np.abs(A * D) + np.abs(B * C)))
        if min(dets) > _U20_DET_FLOOR * max(scales):
            best = r
            break
    if best == 0.0:
        raise NoValidEpsilon("Moebius determinant bound fails on every tested radius")
    return best


def select_epsilon(spec: NodalCurveSpec, candidates, rng: np.random.Generator | None = None) -> float:
    """First candidate radius whose map d(eps) shows no period in {0} x (Q \\ Z).

    Candidates at or above the determinant-bound radius are skipped.  For
    each remaining candidate, d(eps)(c + (0, s)) is compared against
    d(eps)(c) for the fraction grid s in {1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ...,
    4/5} and _SELECT_N_C generic draws of c; the candidate is accepted when
    every comparison moves by more than _SEP_TOL.
    """
    rng = np.random.default_rng(1106) if rng is None else rng
    u20 = estimate_u20_radius(spec, rng)
    usable = [e for e in candidates if 0 < e < u20]
    if not usable:
        raise NoValidEpsilon(
            f"no candidate below the determinant-bound radius {u20:.4g}"
        )
    cs = [sample_generic_c(spec, rng)[0] for _ in range(_SELECT_N_C)]
    for eps in usable:
        for c in cs:
            dm = DMap(spec, c[0], eps)
            base = dm.d2(c[1])
            if any(abs(dm.d2(c[1] + s) - base) <= _SEP_TOL for s in _PERIOD_FRACTIONS):
                break
        else:
            return eps
    raise NoValidEpsilon(f"all candidates {list(candidates)} show a rational period")


def _kappa(spec: NodalCurveSpec, eps: float):
    rc = riemann_constants(spec, eps)
    return kappa_vector(rc, spec, "half_tau")


def beta_k(u, spec: NodalCurveSpec, eps: float, k: int = 0, use_correction: bool = True,
           _kappa_cache=None) -> tuple[complex, complex]:
    """Inverse of the inversion map on the k-th sheet: the c with
    d(eps)(c) = u - kappa(eps), where consecutive sheets differ by (0, 1).

    Both maps are invariant under c -> c + (0,1), so round trips close
    modulo (0,1), which the period group absorbs and the generalized theta
    function does not see.  With use_correction the branch-corrected map
    (affine in c2 up to its integer branch) is inverted in closed form.
    Without it, the stated map is solved in closed form for e(-c2) (see the
    module docstring), and the closed-form d2 at the candidate gives its
    integer miss.  NoPreimage means no c2 exists: the candidate misses by a
    nonzero integer, e(-c2) has no finite nonzero value, or a zero of T_c
    lies on the chart ray at the candidate.  Otherwise the candidate is a
    root of the computed map, |d2(c2*) - v| < _NEWTON_TOL; NewtonDivergence
    means it is not, which is a defect.
    """
    k1, k2 = _kappa(spec, eps) if _kappa_cache is None else _kappa_cache
    c1 = complex(u[0]) - k1
    v = complex(u[1]) - k2
    r1, _, _ = derive_periods(spec)

    # c2 enters the map only through e(-c2): one DMap serves every trial c2
    dm = DMap(spec, c1, eps)

    if use_correction:
        # d2_corr = c1 r1 + c2 + (Log th00(x1) - Log beta + log eps)/(2 pi i),
        # with beta = theta_r(phi1(p2) - c1) * g(0) = c_minus1 e(c2)
        c2 = v - c1 * r1 - dm.branch_log(np.log(dm.beta_coeff)) / TWO_PI_I + k
        return (c1, complex(c2))

    # f(eps) = e(v - c1 r1) is linear in 1/w, w = e(-c2)
    num = eps * complex(dm.alpha1(eps))
    den = dm.beta_coeff * e_func(v - c1 * r1) - complex(dm.G(eps))
    if num == 0 or den == 0:
        raise NoPreimage("the closed-form e(-c2) has no finite nonzero value")
    c2 = complex(-np.log(num / den) / TWO_PI_I) + k
    try:
        f = dm.d2(c2) - v
    except ContourThroughZero as exc:
        raise NoPreimage(f"a zero of T_c lies on the chart ray at the only candidate: {exc}") from exc
    miss = round(f.real)
    if miss != 0:
        raise NoPreimage(f"the only candidate misses d2 = v by the integer {miss}")
    if abs(f) >= _NEWTON_TOL:
        raise NewtonDivergence(f"the closed-form root misses d2 = v by {abs(f):.2e}")
    return (c1, c2)


def zero_set_residual(P, spec: NodalCurveSpec, eps: float, path=None, k: int = 0,
                      use_correction: bool = True, _kappa_cache=None) -> float:
    """|Theta(phi(P) - beta_k(phi(P)))|: distance of the curve point's image
    from the zero set cut out by the branch inverses.

    With the branch-corrected inverse this vanishes for points of the curve
    (zero-set containment); the uncorrected inverse leaves an order-one
    residual, which quantifies the branch-cut defect of the stated map.  The
    value is independent of k because the generalized theta function is
    invariant under (0, 1).
    """
    u = phi(spec, P, path).as_tuple()
    c = beta_k(u, spec, eps, k=k, use_correction=use_correction, _kappa_cache=_kappa_cache)
    r1, r2, _ = derive_periods(spec)
    val = big_theta(u[0] - c[0], u[1] - c[1], spec.tau, r1, r2, spec.policy)
    return abs(val)
