"""Pullback of the generalized theta function along the period map, its
zeros, the Laurent data at the node chart, the generalized Riemann constants
and the inversion congruence check.

The pullback

    T_c(P) = Theta(phi1(P) - c1, phi2(P) - c2)

is single-valued on the cut curve because integer ambiguities of phi2 are
killed by e(.).  It is evaluated through the exact branch-free identity
e(phi2(z)) = (Q(z)/Q(z0)) e(kappa*(z - z0)) with Q the odd-theta quotient,
which also makes grid evaluation cheap: its four thetas are one kernel
pass at z.  T_c has a simple pole at p2 and
exactly two zeros.  Each pullback walks log T_c along its cell boundary
once, and the walk serves four readers: `count_zeros` counts the zeros by
its winding, `alpha_dlog_integral` and `beta_dlog_integral` read its bottom
and left edges, and `locate_zeros` finds the zeros from the first two
moments of log T_c along its bottom edge, where the quasi-periodicity of T_c
reduces the argument principle over the cell.  Their divisor image W
satisfies

    W == d(eps)(c) + kappa(eps)   mod Gamma,

which `verify_thm51` checks for both readings of the constant (-tau/2
versus -tau in the first component), reporting the residual of each.  The
Laurent data at p2 and the stated d(eps) come from one node chart per
(c1, eps), `DMap`, which takes c2 as an argument and reads T_c's four
thetas at p2 + t; on it d(eps) is the log of one chart value, and the
quadrature of h3 is its dual route.  The branch-corrected map needs no
chart: it is the translation d_corr(eps)(c) = c + (0, sigma(eps)) mod (0, 1)
(`corrected_shift`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .abel_jacobi import _chart_g0, a_eps, chart_g_from, divisor_image, e_phi2_from, phi1, phi2
from .curve import (
    NodalCurveSpec,
    derive_periods,
    lattice_coords,
    mod_gamma_decompose,
    period_group,
    reduce_to_cell,
)
from .differentials import odd_chars, third_kind
from .errors import ContourThroughZero, DegenerateC, QuadratureFailure, ZeroCollision
from .quadrature import (
    _N_MAX,
    _QUAD_TOL,
    _log_change_sampled,
    _snap_winding,
    _track_edges,
    integrate_segment,
    track_log_sampled,
)
from .theta import TWO_PI_I, big_theta, e_func, theta_char, theta_chars

GENERICITY_TOL = 1e-3
# Newton polish of the located zeros: step tolerance and iteration cap
_POLISH_TOL, _POLISH_MAX_ITER = 1e-12, 60
# relative disagreement at which jacobian_consistency_check raises
_JACOBIAN_REL_TOL = 1e-5
# draws of sample_generic_c before it gives up
_MAX_TRIES = 64

# What a thm51 sample may raise on a non-generic draw of c: a contour through
# a zero, a zero inside an excluded disk, or a failed genericity guard.  The
# CLI skips and counts such samples.
THM51_SKIPS = (ContourThroughZero, ZeroCollision, DegenerateC)


@lru_cache(maxsize=16)
def _theta_scale(tau: complex, char: tuple[float, float]) -> float:
    """Coarse-grid maximum of |theta[char]| over one fundamental cell."""
    s = np.linspace(0.0, 1.0, 12)
    zs = (s[:, None] + s[None, :] * tau).ravel()
    return float(np.max(np.abs(theta_char(char, zs, tau))))


@lru_cache(maxsize=64)
def _guard_thetas(spec: NodalCurveSpec, c1) -> tuple[complex, complex]:
    """theta00(phi1(p1) - c1) and theta00(phi1(p2) - c1): one pass at -c1."""
    ((th_p1,), (th_p2,)) = theta_chars(((0.0, phi1(spec, spec.p1)), (0.0, phi1(spec, spec.p2))), -c1, spec.tau)
    return th_p1, th_p2


def genericity_failure(spec: NodalCurveSpec, c1) -> str | None:
    """Name of the first genericity guard that the shift c1 fails, or None.

    T_c needs theta00(phi1(p1) - c1) != 0 (its value at p1), and the node
    chart needs theta00(phi1(p2) - c1) != 0 (the Moebius determinant).  Each
    counts as zero at or below GENERICITY_TOL times theta00's scale over one
    cell.  The chart's residue c_minus1 needs theta[-r1;r2](phi1(p2) - c1)
    != 0 too, which is the p1 guard (see corrected_shift).  Both thetas are
    cached per (spec, c1), so the pullbacks and charts of one c1 share them.
    """
    scale = GENERICITY_TOL * _theta_scale(spec.tau, (0.0, 0.0))
    for name, value in zip(("theta00(phi1(p1) - c1)", "theta00(phi1(p2) - c1)"), _guard_thetas(spec, c1)):
        if abs(value) <= scale:
            return name
    return None


def _require_generic(spec: NodalCurveSpec, c1) -> complex:
    """c1 as a complex number; DegenerateC names the first genericity guard
    it fails."""
    c1 = complex(c1)
    failed = genericity_failure(spec, c1)
    if failed is not None:
        raise DegenerateC(failed)
    return c1


def _chart_radius(spec: NodalCurveSpec, eps) -> float:
    """eps as a float; ValueError unless it lies in (0, spec.eps]."""
    if eps <= 0 or eps >= spec.eps * 1.0001:
        raise ValueError("chart radius eps must lie in (0, spec.eps]")
    return float(eps)


def corrected_shift(spec: NodalCurveSpec, eps: float) -> complex:
    """sigma(eps) = r1 (p2 - z0 + r2) - r1^2 tau/2 - (Log g(0) - log eps)/(2*pi*i),
    the translation of the branch-corrected map: d_corr(eps)(c) = c + (0, sigma)
    mod (0, 1).  On the node chart of c1, d_corr = c1 r1 + (Log theta00(x1) -
    Log c_minus1 + log eps)/(2*pi*i) with c_minus1 = theta[-r1;r2](x2) g(0) e(-c2),
    x1 = phi1(p1) - c1 and x2 = phi1(p2) - c1.  As r2 - r1 tau = p1 - p2,
    theta[-r1;r2](x2) = e(r1^2 tau/2 - r1 (x2 + r2)) theta00(x1): c cancels but for c2."""
    r1, r2, _ = derive_periods(spec)
    log_eps = math.log(_chart_radius(spec, eps))
    return r1 * (spec.p2 - spec.z0 + r2) - r1 * r1 * spec.tau / 2 - (cmath.log(_chart_g0(spec)) - log_eps) / TWO_PI_I


def _pullback_chars(spec: NodalCurveSpec, c1: complex) -> tuple:
    """theta00 and theta[-r1;r2] at z - z0 - c1 and the odd pair, all as
    characteristics at z: T_c's four thetas, which the node chart of c1
    reads at z = p2 + t."""
    r1, r2, _ = derive_periods(spec)
    s = spec.z0 + c1
    return ((0.0, -s), (-r1, r2 - s)) + odd_chars(spec)


class ThetaPullback:
    """T_c for one shift c = (c1, c2) on a given curve instance."""

    def __init__(self, c, spec: NodalCurveSpec):
        self.c1 = _require_generic(spec, c[0])
        self.c2 = complex(c[1])
        self.spec = spec
        self.r1, self.r2, _ = derive_periods(spec)
        self._chars = _pullback_chars(spec, self.c1)
        self._walks = {}

    # -- building blocks ----------------------------------------------------

    def value(self, P):
        """T_c(P) for scalars or arrays: one kernel pass, combined in place."""
        z = np.asarray(P, dtype=np.complex128)
        zf = z.reshape(-1)
        (th0,), (thr,), (th1,), (th2,) = theta_chars(self._chars, zf, self.spec.tau)
        thr *= e_phi2_from(self.spec, zf, th1, th2, self.c2)
        th0 += thr
        return complex(th0[0]) if z.ndim == 0 else th0.reshape(z.shape)

    def value_from_phi(self, P):
        """T_c(P) through the tracked period map (dual route, for tests)."""
        spec = self.spec
        return big_theta(phi1(spec, P) - self.c1, phi2(spec, P) - self.c2, spec.tau, self.r1, self.r2)

    def value_and_dvalue(self, P):
        """(T_c(P), dT_c/dz(P)); the derivative by the chain rule through the
        theta kernel and eta.  One window pass gives all four thetas with
        their derivatives; the value equals `value(P)` bit for bit."""
        z = np.asarray(P, dtype=np.complex128)
        zf = z.reshape(-1)
        (th0, th0p), (thr, thrp), odd1, odd2 = theta_chars(self._chars, zf, self.spec.tau, (0, 1))
        eta = third_kind(self.spec).eta_from(zf, odd1, odd2)
        ew = e_phi2_from(self.spec, zf, odd1[0], odd2[0], self.c2)
        T, dT = th0 + thr * ew, th0p + (thrp + TWO_PI_I * eta * thr) * ew
        return (complex(T[0]), complex(dT[0])) if z.ndim == 0 else (T.reshape(z.shape), dT.reshape(z.shape))

    def _cell_walk(self, fallback: bool = False):
        """(a, edges): the log walk of T_c along the cell at a = q0, or at
        a = q0 + (1 + tau)/2 for the fallback cell.  The edges are bottom
        (a, a+1), right (a+1, a+1+tau), top (a+tau, a+1+tau) and left
        (a, a+tau), each as quadrature._track_edges returns it.  Each cell is
        walked once; its ContourThroughZero is kept and raised again."""
        walk = self._walks.get(fallback)
        if walk is None:
            tau = self.spec.tau
            a = self.spec.q0 + (0.5 * (1.0 + tau) if fallback else 0.0)
            edges = [(a, a + 1.0), (a + 1.0, a + 1.0 + tau), (a + tau, a + 1.0 + tau), (a, a + tau)]
            try:
                walk = (a, _track_edges(self.value, edges))
            except ContourThroughZero as exc:
                walk = exc.with_traceback(None)
            self._walks[fallback] = walk
        if isinstance(walk, ContourThroughZero):
            raise walk
        return walk


# -- zero counting and location ---------------------------------------------


def count_zeros(tp: ThetaPullback) -> int:
    """Number of zeros of T_c: boundary winding plus one for the pole at p2.

    The winding is the cell walk's bottom + right - top - left.  Should the
    walk pass through a zero, the fallback cell, translated by (1 + tau)/2,
    is walked instead; every fundamental cell holds one translate of p2, so
    the + 1 holds there too."""
    try:
        _, edges = tp._cell_walk()
    except ContourThroughZero:
        _, edges = tp._cell_walk(fallback=True)
    (b, _), (r, _), (t, _), (l, _) = edges
    return _snap_winding(b + r - t - l) + 1


def alpha_dlog_integral(tp: ThetaPullback) -> complex:
    """(1/2*pi*i) * integral of dlog T_c along the bottom edge q0 -> q0+1."""
    return tp._cell_walk()[1][0][0] / TWO_PI_I


def beta_dlog_integral(tp: ThetaPullback) -> complex:
    """(1/2*pi*i) * integral of dlog T_c along the left edge q0 -> q0+tau."""
    return tp._cell_walk()[1][3][0] / TWO_PI_I


def _newton_polish(tp: ThetaPullback, z: np.ndarray) -> np.ndarray:
    """Newton steps on T_c from the starts z, all in one array call per step,
    until every step is below _POLISH_TOL."""
    for _ in range(_POLISH_MAX_ITER):
        f, df = tp.value_and_dvalue(z)
        if np.any(df == 0):
            raise ZeroCollision("vanishing derivative during Newton polish")
        step = f / df
        z = z - step
        if np.all(np.abs(step) < _POLISH_TOL):
            return z
    raise ZeroCollision(f"Newton polish did not converge near {', '.join(f'{x:.6g}' for x in z)}")


def _power_sums(tp: ThetaPullback, fallback: bool = False):
    """(e(q1) + e(q2), e(2 q1) + e(2 q2)) for the zeros q1, q2 of T_c in the
    strip above the bottom edge (a, a + 1) of the cell walk, or None when the
    walk or the moments fail there.

    T_c is 1-periodic and T'/T drops by 2*pi*i from a line to its tau
    translate, so the argument principle over the cell collapses onto the
    line a.  Integrated by parts against the continuous log the walk tracked,
    for k = 1, 2

        e(k q1) + e(k q2) - e(k p2') = k (e(k tau) - 1) int_a^{a+1} e(k z) L(z) dz

    with p2' the representative of p2 in the strip, D the edge's log change
    and L(z) = log T_c(z) - (z - a) D, which is 1-periodic.  So the
    trapezoid rule converges spectrally.  It starts from the walk's n
    samples, and n doubles, with value-only passes at the midpoints that
    continue log T_c from their left neighbours, until both moments agree
    within _QUAD_TOL (relative), up to _N_MAX.
    """
    try:
        a, edges = tp._cell_walk(fallback)
    except ContourThroughZero:
        return None
    spec = tp.spec
    p2 = spec.p2 if lattice_coords(spec.p2, a, spec.tau)[1] >= 0 else spec.p2 + spec.tau
    k = np.array([[1.0], [2.0]])
    scale = k[:, 0] * (e_func(k[:, 0] * spec.tau) - 1.0)
    D, T = edges[0]
    n = len(T) - 1
    T = T[:-1]
    ell = np.concatenate(([0.0], np.cumsum(np.log(T[1:] / T[:-1]))))

    def sums(x, ell_x):
        return np.sum(e_func(k * (a + x)) * (ell_x - x * D), axis=1)

    acc = sums(np.arange(n) / n, ell)
    m = scale * acc / n
    while n < _N_MAX:
        x = (np.arange(n) + 0.5) / n
        T_mid = tp.value(a + x)
        ell_mid = ell + np.log(T_mid / T)
        acc = acc + sums(x, ell_mid)
        T = np.column_stack((T, T_mid)).ravel()
        ell = np.column_stack((ell, ell_mid)).ravel()
        n *= 2
        m, m_prev = scale * acc / n, m
        if np.max(np.abs(m - m_prev)) <= _QUAD_TOL * np.max(np.abs(m)):
            return m[0] + e_func(p2), m[1] + e_func(2 * p2)
    return None


def locate_zeros(tp: ThetaPullback) -> tuple[complex, complex]:
    """The two zeros of T_c in the cell, from the moments of log T_c along
    the cell walk's bottom edge, the line q0 (or, should the walk or the
    moments fail there, along the fallback cell's, the line q0 + tau/2).
    A Newton polish of both roots in one array call per step confirms that
    each is a zero; from the moment roots that usually takes one step."""
    spec = tp.spec
    s = _power_sums(tp) or _power_sums(tp, fallback=True)
    if s is None:
        raise ContourThroughZero("the walk or the moments of log T_c failed on the lines q0 and q0 + tau/2")
    s1, s2 = s
    r = cmath.sqrt(2 * s2 - s1 * s1)
    w1 = max((s1 + r) / 2, (s1 - r) / 2, key=abs)
    w = (w1, (s1 * s1 - s2) / 2 / w1)

    def cell(z):
        return reduce_to_cell(z, spec.q0, spec.tau)

    starts = np.array([cell(cmath.log(x) / TWO_PI_I) for x in w])
    q1, q2 = (cell(complex(z)) for z in _newton_polish(tp, starts))
    if abs(q1 - q2) < 1e-6:
        raise ZeroCollision("zeros collided after polishing")
    for z in (q1, q2):
        if abs(z - spec.p1) <= spec.delta or abs(z - spec.p2) <= spec.eps:
            raise ZeroCollision(f"zero {z:.6g} inside an excluded disk")
    q1, q2 = sorted((q1, q2), key=lambda z: (z.imag, z.real))
    return q1, q2


# -- the node chart and the d-map ---------------------------------------------


def _moebius(abcd, ec):
    A, B, C, D = abcd
    return (A + B * ec) / (C + D * ec)


class DMap:
    """The node chart z = p2 + t of T_c for one (c1, eps), and the second
    component of d(eps)(c) as a function of c2.

    With w = e(-c2), g(t) = t e(phi2(p2 + t)) (`chart_g_from`), G(t) =
    theta[-r1;r2](x2 + t) g(t) and G0 = G(0) = beta_coeff, the chart reads
    t T_c(p2 + t) = c_minus1 f(t), where c_minus1 = G0 w and

        f(t) = (t alpha1(t)/w + G(t))/G0,   f(0) = 1.

    So h3 = T'/T + 1/t = f'/f = (A + B w)/(C + D w) with (A, B, C, D) =
    (alpha1 + t alpha1', G', t alpha1, G) independent of c2.  Its integral
    H3(eps) is therefore Log f(eps) + 2*pi*i*n, n the winding of f along
    [0, eps]: `d2` and `d2_dc2` are these closed forms, and `H3`, the
    quadrature of h3, is their dual route.  The chart holds what does not
    depend on c2 (beta_coeff = G0 and, on first use, G'(0)/G0); everything
    that does takes c2 as an argument.  One pass of T_c's own four thetas
    at p2 + t gives alpha1, theta[-r1;r2] and the odd pair of g.

    `h3_zero` is the value h3(0; c) implied by the definitions; the shorter
    closed form lacking the derivative term (`h3_zero_no_derivative`) is kept
    for comparison, and its deviation is exactly `h3_zero_defect`.  The
    genericity guard runs once, at construction.
    """

    def __init__(self, spec: NodalCurveSpec, c1, eps: float):
        self.eps = _chart_radius(spec, eps)
        self.c1 = _require_generic(spec, c1)
        self.spec = spec
        self.r1, r2, _ = derive_periods(spec)
        self.diff = third_kind(spec)
        self.x2 = phi1(spec, spec.p2) - self.c1
        self._rchar = (-self.r1, r2)
        self._chars = _pullback_chars(spec, self.c1)
        self.beta_coeff = theta_char(self._rchar, self.x2, spec.tau) * _chart_g0(spec)

    # -- the chart's theta factors and the Moebius coefficients ---------------

    def alpha1_and_G(self, t):
        """(alpha1(t), G(t)) = (theta00(x2 + t), theta[-r1;r2](x2 + t) g(t)),
        the chart's two theta factors, from one window pass at p2 + t; G is
        the residue factor of the chart."""
        t = np.asarray(t, dtype=np.complex128)
        tf = t.reshape(-1)
        (a1,), (th,), (th1,), (th2,) = theta_chars(self._chars, self.spec.p2 + tf, self.spec.tau)
        th *= chart_g_from(self.spec, tf, th1, th2)
        return tuple(complex(v[0]) if t.ndim == 0 else v.reshape(t.shape) for v in (a1, th))

    def mobius_coeffs(self, t):
        """(A, B, C, D) = (alpha1 + t alpha1', G', t alpha1, G), so that
        h3 = (A + B e(-c2)) / (C + D e(-c2)); nothing is divided by t.
        G' = (theta_r' + 2*pi*i*h1 theta_r) g, and one window pass at p2 + t
        gives all four thetas with their derivatives."""
        t = np.asarray(t, dtype=np.complex128)
        tf = t.reshape(-1)
        (a1, a1p), (th, thp), odd1, odd2 = theta_chars(self._chars, self.spec.p2 + tf, self.spec.tau, (0, 1))
        h1 = self.diff._pole_part(tf, self.spec.p2 - self.spec.p1, odd1, odd2) + self.diff.kappa_coeff
        g = chart_g_from(self.spec, tf, odd1[0], odd2[0])
        G, dG = th * g, (thp + TWO_PI_I * h1 * th) * g
        return tuple(complex(v[0]) if t.ndim == 0 else v.reshape(t.shape) for v in (a1 + tf * a1p, dG, tf * a1, G))

    @cached_property
    def h3_zero_defect(self) -> complex:
        """Gap between the two closed forms of h3(0; c), G'(0)/G(0) =
        theta_r'/theta_r(x2) + 2*pi*i*h1(0); computed on first use."""
        spec = self.spec
        ((th, thp),) = theta_chars((self._rchar,), self.x2, spec.tau, (0, 1))
        return complex(thp / th + TWO_PI_I * self.diff.h1_at_p2(0.0))

    # -- c2-dependent quantities ----------------------------------------------

    def c_minus1(self, c2) -> complex:
        """Residue of T_c at p2: G(0) e(-c2)."""
        return self.beta_coeff * e_func(-complex(c2))

    def f(self, t, c2):
        """f(t) = t T_c(p2 + t)/c_minus1 = (t alpha1(t)/w + G(t))/G0, w = e(-c2); f(0) = 1."""
        a1, G = self.alpha1_and_G(t)
        return (t * a1 * e_func(complex(c2)) + G) / self.beta_coeff

    def h3(self, t, c2):
        return _moebius(self.mobius_coeffs(t), e_func(-complex(c2)))

    def h3_zero(self, c2) -> complex:
        """h3(0; c) = G'(0)/G(0) + alpha1(0)/(G(0) w) implied by the
        definitions (includes the derivative term)."""
        return self.h3_zero_no_derivative(c2) + self.h3_zero_defect

    def h3_zero_no_derivative(self, c2) -> complex:
        """Shorter closed form theta00(x2) e(c2) / (theta_r(x2) g(0)); deviates
        from h3_zero by h3_zero_defect."""
        alpha1 = theta_char((0.0, 0.0), self.x2, self.spec.tau)
        return complex(alpha1 * e_func(complex(c2)) / self.beta_coeff)

    def H3(self, c2, t=None) -> complex:
        """Quadrature of h3 along the straight segment from 0 to t (default
        eps): the dual route of the closed form in d2."""
        t = self.eps if t is None else t
        if t == 0:
            return 0.0 + 0.0j
        ec = e_func(-complex(c2))
        return integrate_segment(lambda s: _moebius(self.mobius_coeffs(s), ec), 0.0, complex(t))

    def d2(self, c2) -> complex:
        """c1*r1 + H3(eps; (c1, c2))/(2*pi*i) with H3 = Log f(eps) + 2*pi*i*n:
        n comes from the continuous log of f along [0, eps], tracked from
        f(0) = 1.  Raises ContourThroughZero when a zero of T_c lies on that
        segment."""
        return self.d2_and_log_f(c2)[0]

    def d2_and_log_f(self, c2) -> tuple[complex, complex]:
        """(d2(c2), Log f(eps)), with f(eps) the last sample of d2's log walk."""
        d, f_eps = track_log_sampled(lambda t: self.f(t, c2), 0j, complex(self.eps))
        log_f = complex(np.log(f_eps))
        n = round((d - log_f).imag / (2 * math.pi))
        return self.c1 * self.r1 + log_f / TWO_PI_I + n, log_f

    def d2_dc2(self, c2) -> complex:
        """dH3/dc2 (eps; (c1, c2))/(2*pi*i) = eps alpha1(eps) / (eps alpha1(eps) + w G(eps))."""
        a1, G = self.alpha1_and_G(self.eps)
        a = self.eps * complex(a1)
        return a / (a + e_func(-complex(c2)) * complex(G))


def d_map(eps: float, c, spec: NodalCurveSpec) -> tuple[complex, complex]:
    """d(eps)(c) = (c1, c1*r1 + H3(eps; c)/(2*pi*i))."""
    dm = DMap(spec, c[0], eps)
    return (dm.c1, dm.d2(c[1]))


# -- generalized Riemann constants -------------------------------------------


@dataclass(frozen=True)
class RiemannConstants:
    """Generalized Riemann constants; `kappa_vector` produces the two
    candidate readings (-tau/2 from the definition, -tau from the final
    display of the congruence derivation)."""

    kappa1: complex
    kappa2: complex
    eps: float
    a_value: complex
    alpha_phi1_integral: complex
    alpha_phi2_integral: complex


@lru_cache(maxsize=16)
def riemann_constants(spec: NodalCurveSpec, eps: float) -> RiemannConstants:
    """kappa1 = -tau/2 - phi1(Q0) + phi1(P2) + int_alpha phi1 dz and
    kappa2 = (-tau/2 - phi1(Q0)) r1 + a(eps) + int_alpha phi2 dz.  Only
    int_alpha phi2 dz is a quadrature (to _QUAD_TOL): int_alpha phi1 dz =
    q0 + 1/2 - z0, and a(eps) is closed too, its -log(eps)/(2*pi*i) cancelling
    the +log(eps)/(2*pi*i) of d_map_corrected.  Cached per (spec, eps)."""
    r1, _, _ = derive_periods(spec)
    diff = third_kind(spec)
    i_phi1 = spec.q0 + 0.5 - spec.z0

    # int_alpha phi2 dz = phi2(q0) + int_0^1 (1 - x) eta(q0 + x) dx
    phi2_q0 = phi2(spec, spec.q0)

    def phi2_integrand(x):
        return (1.0 - x) * diff.eta_coeff(spec.q0 + x)

    i_phi2 = phi2_q0 + integrate_segment(phi2_integrand, 0.0, 1.0)

    a_val = a_eps(spec, eps)
    phi1_q0 = phi1(spec, spec.q0)
    phi1_p2 = phi1(spec, spec.p2)
    kappa1 = -0.5 * spec.tau - phi1_q0 + phi1_p2 + i_phi1
    kappa2 = (-0.5 * spec.tau - phi1_q0) * r1 + a_val + i_phi2
    return RiemannConstants(
        kappa1=kappa1,
        kappa2=kappa2,
        eps=eps,
        a_value=a_val,
        alpha_phi1_integral=i_phi1,
        alpha_phi2_integral=i_phi2,
    )


def kappa_vector(rc: RiemannConstants, spec: NodalCurveSpec, variant: str):
    """Constant vector for the chosen first-component reading."""
    r1, _, _ = derive_periods(spec)
    if variant == "half_tau":
        return (rc.kappa1, rc.kappa2)
    if variant == "full_tau":
        shift = -0.5 * spec.tau
        return (rc.kappa1 + shift, rc.kappa2 + shift * r1)
    raise ValueError(f"unknown variant {variant!r}")


# -- the inversion congruence -------------------------------------------------


def branch_correction(dm: DMap, c2, log_f) -> complex:
    """Branch-cut contribution A(eps, c) missing from the naive argument
    principle for the two-component period map.

    The second component of the period map is multivalued around the
    identified points; cutting the domain to make it single-valued adds the
    continued-log term

        A = (1/2*pi*i) * [log T_c(P1) - log T_c(p2 + eps)]

    to the divisor-image congruence.  A is well defined modulo 1 (path and
    branch choices shift it by integers, absorbed by the period group).
    d(eps)(c) + (0, A) is the translation c + (0, sigma(eps)) (see
    corrected_shift), so on the chart dm of (c1, eps)

        A = c2 + sigma(eps) - c1 r1 - Log f(eps)/(2*pi*i),

    returned with Re A in [-1/2, 1/2).  f(eps) = eps T_c(p2 + eps)/c_minus1,
    and log_f is Log f(eps), as DMap.d2_and_log_f returns it with d2.
    """
    a = complex(c2) + corrected_shift(dm.spec, dm.eps) - dm.c1 * dm.r1 - complex(log_f) / TWO_PI_I
    return a - math.floor(a.real + 0.5)


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


def d_map_corrected(eps: float, c, spec: NodalCurveSpec) -> tuple[complex, complex]:
    """Branch-corrected inversion map d(eps)(c) + (0, A(eps, c)), which is
    the translation (c1, c2 + sigma(eps)) mod (0, 1) (see corrected_shift);
    the congruence W == d_corr(eps)(c) + kappa(eps) mod Gamma closes
    numerically, whereas the uncorrected form leaves exactly the A(eps, c)
    defect.  Raises ValueError and DegenerateC where the chart of (c1, eps)
    would.
    """
    sigma = corrected_shift(spec, eps)
    return (_require_generic(spec, c[0]), complex(c[1]) + sigma)


def jacobian_consistency_check(dm: DMap, c2) -> float:
    """Double-entry check of dH3/dc2 at (dm.c1, c2): the closed form
    2*pi*i*d2_dc2 against a Richardson-extrapolated central difference of
    the H3 quadrature on the same chart.  Returns the relative disagreement
    and raises JacobianSingular beyond _JACOBIAN_REL_TOL."""
    from .errors import JacobianSingular

    analytic = TWO_PI_I * dm.d2_dc2(c2)
    h = 1e-3
    d1 = (dm.H3(c2 + h) - dm.H3(c2 - h)) / (2 * h)
    d2 = (dm.H3(c2 + h / 2) - dm.H3(c2 - h / 2)) / h
    fd = (4 * d2 - d1) / 3.0
    rel = abs(analytic - fd) / max(1e-30, abs(analytic))
    if rel > _JACOBIAN_REL_TOL:
        raise JacobianSingular(
            f"dH3/dc2 dual-route disagreement {rel:.3e} exceeds {_JACOBIAN_REL_TOL:g}"
        )
    return rel


@dataclass(frozen=True)
class Thm51Result:
    """Divisor-image congruence residuals.

    residual_half_tau / residual_full_tau follow the stated constant
    (first component -tau/2 resp. -tau); the corrected_* fields add the
    branch-cut term A(eps, c) to the congruence.  variant_used names the
    constant whose corrected residual closes.
    """

    c: tuple[complex, complex]
    n_zeros: int
    zeros: tuple[complex, complex]
    w: tuple[complex, complex]
    d_value: tuple[complex, complex]
    correction: complex
    residual_half_tau: float
    residual_full_tau: float
    corrected_residual_half_tau: float
    corrected_residual_full_tau: float
    variant_used: str
    coeffs: tuple[int, int, int]

    @property
    def literal_residual(self) -> float:
        """Best stated-form residual (no branch correction)."""
        return min(self.residual_half_tau, self.residual_full_tau)


def verify_thm51(c, spec: NodalCurveSpec, eps: float) -> Thm51Result:
    """Check W = phi(Q1) + phi(Q2) == d(eps)(c) + kappa(eps) mod Gamma.

    Residuals are reported for both candidate constants (-tau/2 and -tau in
    the first component) and both congruence forms (stated, and with the
    branch-cut term A(eps, c) added to the second component).  Only the
    corrected form closes.  Its residual is read from
    W - c - (0, sigma(eps)) - kappa (see corrected_shift); `correction` is
    A(eps, c) on the chart of the stated d-value (see branch_correction).

    The closed-form d2 is checked against its dual route, one quadrature of
    h3: they must agree within _QUAD_TOL (the quadrature's error budget;
    its accepted panel tolerances sum to at most _QUAD_TOL), else
    QuadratureFailure.
    """
    tp = c if isinstance(c, ThetaPullback) else ThetaPullback(c, spec)
    n = count_zeros(tp)
    zeros = locate_zeros(tp)
    w = divisor_image(spec, list(zeros))
    dm = DMap(spec, tp.c1, eps)
    d2, log_f = dm.d2_and_log_f(tp.c2)
    d_val = (dm.c1, d2)
    h3_gap = abs(dm.H3(tp.c2) - TWO_PI_I * (d2 - dm.c1 * dm.r1))
    if h3_gap > _QUAD_TOL:
        raise QuadratureFailure(f"H3 quadrature misses the closed-form d2 by {h3_gap:.3e}")
    d_corr = (tp.c1, tp.c2 + corrected_shift(spec, eps))
    rc = riemann_constants(spec, eps)
    pg = period_group(spec)
    res, decs = {}, {}
    for variant in ("half_tau", "full_tau"):
        k1, k2 = kappa_vector(rc, spec, variant)
        for corrected, d in ((False, d_val), (True, d_corr)):
            dec = mod_gamma_decompose((w[0] - d[0] - k1, w[1] - d[1] - k2), pg)
            res[(variant, corrected)] = dec.residual_norm
            decs[(variant, corrected)] = dec
    variant = min(("half_tau", "full_tau"), key=lambda v: res[(v, True)])
    dec = decs[(variant, True)]
    return Thm51Result(
        c=(tp.c1, tp.c2),
        n_zeros=n,
        zeros=zeros,
        w=w,
        d_value=d_val,
        correction=branch_correction(dm, tp.c2, log_f),
        residual_half_tau=res[("half_tau", False)],
        residual_full_tau=res[("full_tau", False)],
        corrected_residual_half_tau=res[("half_tau", True)],
        corrected_residual_full_tau=res[("full_tau", True)],
        variant_used=variant,
        coeffs=(dec.m, dec.p, dec.q),
    )


def sample_generic_c(spec: NodalCurveSpec, rng: np.random.Generator):
    """Draw c from the fundamental box, rejecting shifts that fail
    genericity_failure.  Returns (c, n_rejected)."""
    rejected = 0
    for _ in range(_MAX_TRIES):
        s, t = rng.uniform(0.0, 1.0, size=2)
        c1 = s + t * spec.tau
        c2 = complex(rng.uniform(0.0, 1.0), rng.uniform(-0.25, 0.25))
        if genericity_failure(spec, c1) is None:
            return (c1, c2), rejected
        rejected += 1
    raise DegenerateC(f"no generic c found in {_MAX_TRIES} draws")
