"""Pullback of the generalized theta function along the period map, its
zeros, the Laurent data at the node chart, the generalized Riemann constants
and the inversion congruence check.

The pullback

    T_c(P) = Theta(phi1(P) - c1, phi2(P) - c2)

is single-valued on the cut curve because integer ambiguities of phi2 are
killed by e(.).  It is evaluated through the exact branch-free identity
e(phi2(z)) = (Q(z)/Q(z0)) e(kappa*(z - z0)) with Q the odd-theta quotient,
which also makes grid evaluation cheap: its four thetas are one kernel
pass at z, and their automorphy prefactors fold into theta00's, which with
the rest is read from powers of the pass's e(w), so a point takes one
exponential (`ThetaPullback`).  T_c has a simple pole at p2 and
exactly two zeros.  Each pullback walks log T_c along its cell boundary
once, and the walk serves four readers: `count_zeros` counts the zeros by
its winding, `alpha_dlog_integral` and `beta_dlog_integral` read its bottom
and left edges, and `locate_zeros` finds the zeros from the first two
moments of log T_c along its bottom edge, where the quasi-periodicity of T_c
reduces the argument principle over the cell.  Their divisor image W
satisfies

    W == d(eps)(c) + kappa(eps)   mod Gamma,

which `verify_thm51`, the thm51 suite's sample, checks for both readings of
the constant (-tau/2 versus -tau in the first component), reporting the
residual of each and the edge integers read off the same walk.  The
Laurent data at p2 and the stated d(eps) come from one node chart per
(c1, eps), `DMap`, which takes c2 as an argument and reads T_c's four
thetas at p2 + t through the pullback's fused sum (`_FusedSum`).  The
stated map is d(eps)(c) = (c1, `DMap.d2`(c2)), the log of one chart
value; its dual route, the quadrature of h3, is a test oracle.  The
branch-corrected map needs no chart: it is the translation d_corr(eps)(c)
= c + (0, sigma(eps)) mod (0, 1), sigma = `corrected_shift(spec, eps)`,
and the branch-cut term is their difference, A = c2 + sigma - d2 mod 1.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .abel_jacobi import _chart_g0, _chart_radius, _q_at_z0, a_eps, divisor_image, phi1, phi2
from .curve import (
    NodalCurveSpec,
    derive_periods,
    lattice_coords,
    mod_gamma_decompose,
    period_group,
    reduce_to_cell,
)
from .differentials import _ELL_SWITCH, odd_chars, third_kind
from .errors import ContourThroughZero, DegenerateC, ZeroCollision
from .quadrature import (
    _N0,
    _N_MAX,
    _QUAD_TOL,
    _snap_winding,
    _track_edges,
    integrate_segment,
    track_log_sampled,
)
from .theta import TWO_PI_I, _reduce, _row_sums, _theta_pass, e_func, theta_char

GENERICITY_TOL = 1e-3
# Newton polish of the located zeros: step tolerance and iteration cap
_POLISH_TOL, _POLISH_MAX_ITER = 1e-12, 60
# draws of sample_generic_c before it gives up
_MAX_TRIES = 64

# What a thm51 sample may raise on a non-generic draw of c: a contour through
# a zero, a zero inside an excluded disk, or a failed genericity guard.  The
# CLI skips and counts such samples.
THM51_SKIPS = (ContourThroughZero, ZeroCollision, DegenerateC)


@lru_cache(maxsize=16)
def _theta_scale(tau: complex) -> float:
    """Coarse-grid maximum of |theta00| over one fundamental cell."""
    s = np.linspace(0.0, 1.0, 12)
    zs = (s[:, None] + s[None, :] * tau).ravel()
    return float(np.max(np.abs(theta_char((0.0, 0.0), zs, tau))))


# the guard thetas by (spec, c1), least recently used first
_GUARDS: OrderedDict = OrderedDict()
_GUARD_ENTRIES = 64


def _guard_thetas(spec: NodalCurveSpec, c1, values=None) -> tuple[complex, complex]:
    """theta00(phi1(p1) - c1) and theta00(phi1(p2) - c1): values, from a pass
    that holds them (branches._corrected_point), else stored, else one pass
    of the single characteristic (0, 0) at the two points.  Stored per
    (spec, c1), the least recently used going past _GUARD_ENTRIES."""
    key = (spec, c1)
    if values is None:
        values = _GUARDS.get(key)
    if values is None:
        values = theta_char((0.0, 0.0), np.array([phi1(spec, spec.p1), phi1(spec, spec.p2)]) - c1, spec.tau)
    _GUARDS[key] = values = tuple(values)
    _GUARDS.move_to_end(key)
    if len(_GUARDS) > _GUARD_ENTRIES:
        _GUARDS.popitem(last=False)
    return values


def genericity_failure(spec: NodalCurveSpec, c1) -> str | None:
    """Name of the first genericity guard that the shift c1 fails, or None.

    T_c needs theta00(phi1(p1) - c1) != 0 (its value at p1), and the node
    chart needs theta00(phi1(p2) - c1) != 0 (the Moebius determinant).  Each
    counts as zero at or below GENERICITY_TOL times theta00's scale over one
    cell.  The chart's residue c_minus1 needs theta[-r1;r2](phi1(p2) - c1)
    != 0 too, which is the p1 guard (see corrected_shift).  Both thetas come
    from one theta00 pass, stored per (spec, c1) (_guard_thetas), so the
    pullbacks and charts of one c1 share it.
    """
    scale = GENERICITY_TOL * _theta_scale(spec.tau)
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


def _odd_pair_factor(spec: NodalCurveSpec, chars: tuple, c2: complex) -> tuple[int, complex]:
    """(M, G) such that, at z = w + q*tau, the automorphy prefactors of T_c's
    four thetas (theta._row_sums) combine as

        P_r P_1 e(r1 (z - z0) - c2) / (P_2 P_0 Q(z0)) = e(M w) G.

    With P_i = e((a_i - Q_i) w - Q_i (Q_i tau/2 + beta_i)) and Q_i = q - m_i
    for chars = (theta00, theta_r, odd at p1, odd at p2) (_pullback_chars):
    the coefficient of w is M = a_r + r1 + m_r + m_1 - m_2 - m_0, an integer
    because kappa = r1 (curve.derive_periods), a_r = -r1 mod 1, a_0 = 0 and
    the odd pair shares a = 1/2; the Q^2 terms cancel; and the coefficient
    of q is b_0 + b_2 - b_r - b_1 + r1 tau = p1 - p2 - (r2 - r1 tau) = 0.
    So G = e(h - r1 z0 - c2)/Q(z0), h = h_r + h_1 - h_2 - h_0 with h_i =
    m_i beta_i - m_i^2 tau/2, the exponent's value at q = 0.  Where |m_i|
    reaches 3 the terms reach about 8 and cancel to below 1, so h is summed
    exactly: the tau/2 terms as the one integer K = m_r^2 + m_1^2 - m_2^2 -
    m_0^2, and each m_i beta_i as |m_i| copies of +-beta_i, by math.fsum."""
    r1, _, _ = derive_periods(spec)
    reduced = [_reduce(a, b, spec.tau) for a, b in chars]
    (_, _, m_0), (a_r, _, m_r), (_, _, m_1), (_, _, m_2) = reduced
    k = m_r * m_r + m_1 * m_1 - m_2 * m_2 - m_0 * m_0
    signs = (-1, 1, 1, -1)
    terms = [math.copysign(1.0, s * m) * beta for s, (_, beta, m) in zip(signs, reduced) for _ in range(abs(m))]
    terms += [math.copysign(0.5, -k) * spec.tau] * abs(k)
    h = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    power = round(a_r + r1) + m_r + m_1 - m_2 - m_0
    return power, cmath.exp(TWO_PI_I * (h - r1 * spec.z0 - c2)) / _q_at_z0(spec)


def _table_power(powers, k: int):
    """e(k w) at the points of a block, from the power table of
    theta._row_sums: its row |k|, the e(-j w) half for k < 0, or past the
    table an integer power of its row 1."""
    half = int(k < 0)
    if abs(k) < len(powers):
        return powers[abs(k), half]
    return np.power(powers[1, half], abs(k))


class _FusedSum:
    """T_c's four thetas for one shift c1 (_pullback_chars: theta00 and
    theta_r at z - z0 - c1, theta11 at z - p1 and at z - p2), summed in one
    kernel pass at z with their automorphy prefactors folded into theta00's.

    theta_i = P_i S_i, S_i the row sums of theta._row_sums, and the
    prefactors other than theta00's combine to the table's e(w)^M times a
    constant G (_odd_pair_factor, at the c2 given).  theta00's prefactor is
    P_0 = e(-w)^Q C(Q), with Q = Q_0 = q - m_0 its strip shift and C(Q) =
    e(-Q beta_0 - Q^2 tau/2) one scalar exponential per distinct Q, cached
    per object.  _prefactors builds P_0 once per Q in the range of a block's
    strip shifts: e(-w)^Q is the table's row |Q|, its e(-j w) half for
    Q > 0 and its e(j w) half for Q < 0 (an integer power of row 1 past the
    table), times the scalar C(Q); where the block spans several strips,
    each point takes the P_0 of its own Q, so its bits depend on that point
    alone.  e(M w) is the table's row |M|.  So a point takes one
    exponential, the table's e(w).  The windows of a new c1 twist cached
    tau-only Gaussians (theta._window).  The pullback (ThetaPullback) and
    the node chart (DMap) of c1 each sum their blocks on it."""

    def __init__(self, spec: NodalCurveSpec, c1, c2):
        self.c1 = _require_generic(spec, c1)
        self.spec = spec
        self.r1, self.r2, _ = derive_periods(spec)
        self._chars = _pullback_chars(spec, self.c1)
        self._power, self._scale = _odd_pair_factor(spec, self._chars, c2)
        _, self._beta_0, _ = _reduce(*self._chars[0], spec.tau)
        self._constants = {}  # C(Q) by the strip shifts Q met so far

    def _theta00_prefactor(self, powers, shift: int):
        """P_0 = e(-w)^Q C(Q) at every point of a block, for one strip shift
        Q = shift of theta00: the table's e(-Q w) times the scalar C(Q),
        which is one scalar exponential cached per object."""
        c = self._constants.get(shift)
        if c is None:
            tau, beta = self.spec.tau, self._beta_0
            c = self._constants[shift] = cmath.exp(-TWO_PI_I * shift * (beta + 0.5 * shift * tau))
        return _table_power(powers, -shift) * c

    def _prefactors(self, window_set, powers, q, lo, hi):
        """(P_0, e(M w) G) at the points of one block, from its power table
        and its strip numbers q in [lo, hi] (theta._row_sums)."""
        m_0 = window_set.m[0, 0]
        lo, hi = int(lo - m_0), int(hi - m_0)
        p_0 = self._theta00_prefactor(powers, lo)
        for shift in range(lo + 1, hi + 1):
            np.copyto(p_0, self._theta00_prefactor(powers, shift), where=q == shift + m_0)
        return p_0, _table_power(powers, self._power) * self._scale


class ThetaPullback(_FusedSum):
    """T_c for one shift c = (c1, c2) on a given curve instance.

    T_c(z) = theta00(x) + theta_r(x) e(phi2(z) - c2), x = z - z0 - c1, with
    e(phi2(z)) = (Q(z)/Q(z0)) e(r1 (z - z0)), is summed from the row sums S_i
    of its four thetas in one kernel pass at z (_FusedSum), G at this c2:

        T_c = P_0 (S_0 + e(M w) G S_r S_1/S_2)."""

    def __init__(self, c, spec: NodalCurveSpec):
        self.c2 = complex(c[1])
        super().__init__(spec, c[0], self.c2)
        self._walks = {}

    # -- building blocks ----------------------------------------------------

    def _block(self, z, tau, window_set, out):
        """T_c, and dT_c/dz when out has two rows, at the points z of one
        block.  P_0 is built once per strip shift Q of the block, from the
        range of its strip numbers; where the block spans several strips,
        each point takes the P_0 of its own Q.  dT_c is the quotient rule on
        the pass's order-1 sums D_i, theta_i' = P_i D_i:

            dT_c = P_0 (D_0 + e(M w) G [(D_r S_1 + S_r D_1 + 2 pi i r1 S_r S_1) S_2 - S_r S_1 D_2] / S_2^2),

        which divides by neither S_r nor S_1, so it holds at the zero p1 of S_1."""
        n = len(out)
        sums = np.empty((4 * n, len(z)), dtype=np.complex128)
        _, powers, q, lo, hi = _row_sums(z, tau, window_set, sums)
        p_0, xg = self._prefactors(window_set, powers, q, lo, hi)
        s_0, s_r, s_1, s_2 = sums[::n]
        u = s_r * s_1
        t = u / s_2
        t *= xg
        t += s_0
        np.multiply(t, p_0, out=out[0])
        if n == 2:
            d_0, d_r, d_1, d_2 = sums[1::2]
            dt = d_r * s_1 + s_r * d_1 + (TWO_PI_I * self.r1) * u
            dt *= s_2
            dt -= u * d_2
            dt /= s_2 * s_2
            dt *= xg
            dt += d_0
            np.multiply(dt, p_0, out=out[1])

    def value(self, P):
        """T_c(P) for scalars or arrays: one kernel pass."""
        z, (T,) = _theta_pass(self._chars, P, self.spec.tau, (0,), 1, self._block)
        return complex(T[0]) if z.ndim == 0 else T[:z.size].reshape(z.shape)

    def value_and_dvalue(self, P):
        """(T_c(P), dT_c/dz(P)) from one kernel pass of the four thetas with
        their derivatives; the value equals `value(P)` bit for bit."""
        z, (T, dT) = _theta_pass(self._chars, P, self.spec.tau, (0, 1), 2, self._block)
        if z.ndim == 0:
            return complex(T[0]), complex(dT[0])
        return T[:z.size].reshape(z.shape), dT[:z.size].reshape(z.shape)

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


class DMap(_FusedSum):
    """The node chart z = p2 + t of T_c for one (c1, eps), and the second
    component of d(eps)(c) as a function of c2.

    With w = e(-c2), g(t) = t e(phi2(p2 + t)) (`abel_jacobi.chart_g`),
    G(t) = theta[-r1;r2](x2 + t) g(t) and G0 = G(0) = beta_coeff, the chart
    reads t T_c(p2 + t) = c_minus1 f(t), where c_minus1 = G0 w and

        f(t) = (t alpha1(t)/w + G(t))/G0,   f(0) = 1.

    So h3 = T'/T + 1/t = f'/f = (A + B w)/(C + D w) with (A, B, C, D) =
    (alpha1 + t alpha1', G', t alpha1, G) independent of c2.  Its integral
    H3(eps) is therefore Log f(eps) + 2*pi*i*n, n the winding of f along
    [0, eps]: `d2` is this closed form, and the quadrature of h3 over
    [0, eps] is its dual route, a test oracle.

    The chart reads alpha1 and G from the pullback's fused sum of T_c's
    four thetas at p2 + t (_FusedSum), with K its constant G at c2 = 0:

        alpha1 = P_0 S_0,   G = P_0 e(M w) K S_r S_1 / V,   V = S_2/t,

    and within _ELL_SWITCH of the node V = o(t)/P_2, o(t) = theta11(t)/t
    from its Taylor series (ThirdKindDifferential._odd_over_t_series) and P_2
    theta11's prefactor, so G is regular at t = 0.  A point takes one
    exponential, and a point within _ELL_SWITCH one more, for P_2.  The
    derivatives are the quotient rule on the order-1 sums D_i, as in
    ThetaPullback._block, with L = V'/V = D_2/S_2 - 1/t (o'/o near the node):

        G' = P_0 e(M w) K [D_r S_1 + S_r D_1 + 2 pi i r1 S_r S_1 - S_r S_1 L] / V,

    which divides by neither S_r nor S_1.  The chart holds what does not
    depend on c2: beta_coeff = G0, and alpha1 and G at the _N0 + 1 first
    samples of d2's walk along [0, eps] (`ray`), computed on first use;
    what depends on c2 takes it as an argument.  The genericity guard runs
    once, at construction.  The residue c_minus1, h3 itself, its value at
    the node, its quadrature H3, the c2-derivative of d2 and the four-theta
    route to the chart's factors are test oracles (tests/oracles.py).
    """

    def __init__(self, spec: NodalCurveSpec, c1, eps: float):
        self.eps = _chart_radius(spec, eps)
        super().__init__(spec, c1, 0.0)
        self.diff = third_kind(spec)
        x2 = phi1(spec, spec.p2) - self.c1
        self.beta_coeff = theta_char((-self.r1, self.r2), x2, spec.tau) * _chart_g0(spec)
        self._ray = None  # (alpha1, G) on the walk's _N0 + 1 first samples

    # -- the chart's theta factors and the Moebius coefficients ---------------

    def _block(self, z, tau, window_set, out):
        """(alpha1, G), or (A, B, C, D) for orders (0, 1), at the chart points
        z = p2 + t of one block, t = z - p2 (see the class docstring).  Every
        step runs on the block's padded points, or on those of its points
        that lie within _ELL_SWITCH of the node, so a point's values do not
        depend on its batch."""
        n = len(window_set.orders)
        sums = np.empty((4 * n, len(z)), dtype=np.complex128)
        w, powers, q, lo, hi = _row_sums(z, tau, window_set, sums)
        p_0, xg = self._prefactors(window_set, powers, q, lo, hi)
        xg *= p_0
        s_0, s_r, s_1, s_2 = sums[::n]
        t = z - self.spec.p2
        small = np.abs(t) < _ELL_SWITCH
        big = ~small
        v = np.divide(s_2, t, out=np.empty_like(t), where=big)
        if n == 2:
            d_0, d_r, d_1, d_2 = sums[1::2]
            ell = np.divide(d_2, s_2, out=np.empty_like(t), where=big)
            ell -= np.divide(1.0, t, out=np.zeros_like(t), where=big)
        if small.any():
            # P_2 as theta._block_pass forms it, one exponential per point
            shift = q[small] - window_set.m[3, 0]
            p_2 = (window_set.a_red[3, 0] - shift) * w[small] - shift * (0.5 * (shift * tau) + window_set.beta[3, 0])
            np.exp(TWO_PI_I * p_2, out=p_2)
            if n == 1:
                o = self.diff._odd_over_t_series(t[small])
            else:
                o, ell[small] = self.diff._odd_series(t[small])
            v[small] = o / p_2
        u = s_r * s_1
        G = u / v
        G *= xg
        if n == 1:
            np.multiply(s_0, p_0, out=out[0])
            out[1] = G
            return
        alpha1 = s_0 * p_0
        dG = d_r * s_1 + s_r * d_1 + (TWO_PI_I * self.r1) * u
        dG -= u * ell
        dG /= v
        dG *= xg
        out[0] = alpha1 + t * (d_0 * p_0)
        out[1], out[2], out[3] = dG, t * alpha1, G

    def _chart_pass(self, t, orders):
        """The chart block's rows at a chart point t or an array of them,
        from one window pass of the four thetas at p2 + t."""
        t = np.asarray(t, dtype=np.complex128)
        z, vals = _theta_pass(self._chars, self.spec.p2 + t, self.spec.tau, orders, 2 * len(orders), self._block)
        return tuple(complex(v[0]) if z.ndim == 0 else v[:z.size].reshape(z.shape) for v in vals)

    def alpha1_and_G(self, t):
        """(alpha1(t), G(t)) = (theta00(x2 + t), theta[-r1;r2](x2 + t) g(t)),
        the chart's two theta factors, from one window pass at p2 + t; G is
        the residue factor of the chart."""
        return self._chart_pass(t, (0,))

    def mobius_coeffs(self, t):
        """(A, B, C, D) = (alpha1 + t alpha1', G', t alpha1, G), so that
        h3 = (A + B e(-c2)) / (C + D e(-c2)); nothing is divided by t.  One
        window pass at p2 + t gives all four thetas with their derivatives."""
        return self._chart_pass(t, (0, 1))

    def ray(self):
        """(alpha1, G) at the _N0 + 1 first samples t_j = j eps/_N0 of d2's
        walk along [0, eps] (quadrature._track_edges), from one pass kept on
        the chart: the last sample is t = eps."""
        if self._ray is None:
            self._ray = self.alpha1_and_G(np.arange(_N0 + 1) / _N0 * complex(self.eps))
        return self._ray

    def _ray_at(self, t):
        """(alpha1, G) at the points t of one call of d2's walk: the ray
        when t is its samples, else one chart pass at t, as for the new
        midpoints of a doubling and the bisection of failing intervals
        (quadrature._bisection)."""
        if len(t) == _N0 + 1 and np.array_equal(t, np.arange(_N0 + 1) / _N0 * complex(self.eps)):
            return self.ray()
        return self.alpha1_and_G(t)

    # -- c2-dependent quantities ----------------------------------------------

    def _f(self, t, alpha1, G, c2):
        return (t * alpha1 * e_func(c2) + G) / self.beta_coeff

    def f(self, t, c2):
        """f(t) = t T_c(p2 + t)/c_minus1 = (t alpha1(t)/w + G(t))/G0, w = e(-c2); f(0) = 1.
        t and c2 broadcast: one window pass at p2 + t serves every c2."""
        return self._f(t, *self.alpha1_and_G(t), c2)

    def d2(self, c2) -> complex:
        """c1*r1 + H3(eps; (c1, c2))/(2*pi*i), the stated map's second
        component, with H3 = Log f(eps) + 2*pi*i*n: n comes from the
        continuous log of f along [0, eps], tracked from f(0) = 1, whose
        last sample is f(eps).  The walk's first call reads f from the
        chart's ray, so a c2 whose walk needs no doubling makes no kernel
        pass of its own; each later call is one chart pass at its own
        points.  Raises ContourThroughZero when a zero of T_c lies on that
        segment."""
        d, f_eps = track_log_sampled(lambda t: self._f(t, *self._ray_at(t), c2), 0j, complex(self.eps))
        log_f = complex(np.log(f_eps))
        n = round((d - log_f).imag / (2 * math.pi))
        return self.c1 * self.r1 + log_f / TWO_PI_I + n


# -- generalized Riemann constants -------------------------------------------


@dataclass(frozen=True)
class RiemannConstants:
    """Generalized Riemann constants at one radius eps; `kappa_vector`
    produces the two candidate readings (-tau/2 from the definition, -tau
    from the final display of the congruence derivation), and the integrals
    of phi1 dz and phi2 dz along the alpha edge that they are built from."""

    kappa1: complex
    kappa2: complex
    alpha_phi1_integral: complex
    alpha_phi2_integral: complex


@lru_cache(maxsize=16)
def riemann_constants(spec: NodalCurveSpec, eps: float) -> RiemannConstants:
    """kappa1 = -tau/2 - phi1(Q0) + phi1(P2) + int_alpha phi1 dz and
    kappa2 = (-tau/2 - phi1(Q0)) r1 + a(eps) + int_alpha phi2 dz.  Only
    int_alpha phi2 dz is a quadrature (to _QUAD_TOL): int_alpha phi1 dz =
    q0 + 1/2 - z0, and a(eps) is closed too, its -log(eps)/(2*pi*i) cancelling
    the +log(eps)/(2*pi*i) of corrected_shift.  Cached per (spec, eps).
    Raises ValueError, before any other work, unless eps lies in
    (0, spec.eps]."""
    _chart_radius(spec, eps)
    r1, _, _ = derive_periods(spec)
    diff = third_kind(spec)
    i_phi1 = spec.q0 + 0.5 - spec.z0

    # int_alpha phi2 dz = phi2(q0) + int_0^1 (1 - x) eta(q0 + x) dx
    phi2_q0 = phi2(spec, spec.q0)

    def phi2_integrand(x):
        return (1.0 - x) * diff.eta_coeff(spec.q0 + x)

    i_phi2 = phi2_q0 + integrate_segment(phi2_integrand, 0.0, 1.0)

    phi1_q0 = phi1(spec, spec.q0)
    phi1_p2 = phi1(spec, spec.p2)
    kappa1 = -0.5 * spec.tau - phi1_q0 + phi1_p2 + i_phi1
    kappa2 = (-0.5 * spec.tau - phi1_q0) * r1 + a_eps(spec, eps) + i_phi2
    return RiemannConstants(
        kappa1=kappa1,
        kappa2=kappa2,
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


def branch_correction(dm: DMap, c2, d2) -> complex:
    """Branch-cut contribution A(eps, c) missing from the naive argument
    principle for the two-component period map.

    The second component of the period map is multivalued around the
    identified points; cutting the domain to make it single-valued adds the
    continued-log term

        A = (1/2*pi*i) * [log T_c(P1) - log T_c(p2 + eps)]

    to the divisor-image congruence.  A is well defined modulo 1 (path and
    branch choices shift it by integers, absorbed by the period group).
    d(eps)(c) + (0, A) is the translation c + (0, sigma(eps)) (see
    corrected_shift), so A is the corrected map less the stated one: on the
    chart dm of (c1, eps), with d2 = dm.d2(c2),

        A = c2 + sigma(eps) - d2,

    returned with Re A in [-1/2, 1/2).  d2 = c1 r1 + Log f(eps)/(2*pi*i) + n,
    f(eps) = eps T_c(p2 + eps)/c_minus1, and the reduction drops the integer n.
    """
    a = complex(c2) + corrected_shift(dm.spec, dm.eps) - complex(d2)
    return a - math.floor(a.real + 0.5)


@dataclass(frozen=True)
class Thm51Result:
    """Divisor-image congruence residuals of one shift c.

    residual_half_tau / residual_full_tau follow the stated constant
    (first component -tau/2 resp. -tau); the corrected_* fields add the
    branch-cut term A(eps, c) to the congruence.  variant_used names the
    constant whose corrected residual closes.  alpha_dlog_winding and
    beta_dlog_offset are the integers by which the edge integrals miss their
    displays: alpha_dlog_integral itself, and beta_dlog_integral minus
    -tau/2 - (phi1(q0) - c1), each rounded.
    """

    c: tuple[complex, complex]
    n_zeros: int
    zeros: tuple[complex, complex]
    w: tuple[complex, complex]
    residual_half_tau: float
    residual_full_tau: float
    corrected_residual_half_tau: float
    corrected_residual_full_tau: float
    variant_used: str
    alpha_dlog_winding: int
    beta_dlog_offset: int


def verify_thm51(c, spec: NodalCurveSpec, eps: float) -> Thm51Result:
    """Check W = phi(Q1) + phi(Q2) == d(eps)(c) + kappa(eps) mod Gamma.

    Residuals are reported for both candidate constants (-tau/2 and -tau in
    the first component) and both congruence forms (stated, and with the
    branch-cut term A(eps, c) added to the second component).  Only the
    corrected form closes.  The stated residual reads d(eps)(c) from the
    node chart (DMap.d2); the corrected one reads W - c - (0, sigma(eps)) -
    kappa (see corrected_shift).  Raises ValueError, before any other work,
    unless eps lies in (0, spec.eps].  This is the thm51 suite's sample: the
    result carries the edge integers too, read off the walk that counted
    the zeros, and THM51_SKIPS lists what a non-generic c raises.

    The sample runs no quadrature but the one of riemann_constants, cached
    per (spec, eps): d2 is a closed form, read only mod Gamma.
    """
    _chart_radius(spec, eps)
    tp = ThetaPullback(c, spec)
    n = count_zeros(tp)
    zeros = locate_zeros(tp)
    w = divisor_image(spec, list(zeros))
    dm = DMap(spec, tp.c1, eps)
    d2 = dm.d2(tp.c2)
    d_corr = (tp.c1, tp.c2 + corrected_shift(spec, eps))
    rc = riemann_constants(spec, eps)
    pg = period_group(spec)
    res = {}
    for variant in ("half_tau", "full_tau"):
        k1, k2 = kappa_vector(rc, spec, variant)
        for corrected, d in ((False, (dm.c1, d2)), (True, d_corr)):
            dec = mod_gamma_decompose((w[0] - d[0] - k1, w[1] - d[1] - k2), pg)
            res[(variant, corrected)] = dec.residual_norm
    # after the residuals: where the walk at q0 failed and the zeros came
    # from the fallback cell, the edges raise its ContourThroughZero here
    alpha = alpha_dlog_integral(tp)
    beta = beta_dlog_integral(tp) - (-0.5 * spec.tau - (phi1(spec, spec.q0) - tp.c1))
    return Thm51Result(
        c=(tp.c1, tp.c2),
        n_zeros=n,
        zeros=zeros,
        w=w,
        residual_half_tau=res[("half_tau", False)],
        residual_full_tau=res[("full_tau", False)],
        corrected_residual_half_tau=res[("half_tau", True)],
        corrected_residual_full_tau=res[("full_tau", True)],
        variant_used=min(("half_tau", "full_tau"), key=lambda v: res[(v, True)]),
        alpha_dlog_winding=round(alpha.real),
        beta_dlog_offset=round(beta.real),
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
