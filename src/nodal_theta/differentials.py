"""The normalized third-kind differential on the curve.

eta has simple poles at the identified points p1 (residue +1/(2*pi*i)) and
p2 (residue -1/(2*pi*i)), unit period around p1, and real cut periods
(r1, r2).  Its dz-coefficient is

    eta(z) = (1/2*pi*i) [ ell(z - p1) - ell(z - p2) ] + kappa_coeff

with ell = theta'[1/2;1/2]/theta[1/2;1/2] and kappa_coeff chosen so both cut
periods are real (see `curve.derive_periods`); both odd thetas come from
one kernel pass at z.  Near the poles the local data h, h1 (the holomorphic parts
in the translation charts z = p_i + t) are evaluated with explicit pole
cancellation.  The Taylor data of theta[1/2;1/2] at 0, summed from their own
series (the kernel serves orders 0 and 1 only), give o(t) =
theta[1/2;1/2](t)/t near 0 as one series, and ell(t) - 1/t = o'(t)/o(t)
there.  h1 has no power series: its integral is the log change of g(t) =
t e(phi2(p2 + t)) (abel_jacobi).
"""

from __future__ import annotations

import math

import numpy as np

from .curve import NodalCurveSpec, _per_spec, derive_periods, lattice_coords
from .errors import NonConvergent, PoleAt
from .quadrature import integrate_circle, integrate_polyline
from .theta import _ABS_TOL, _MAX_INDEX, TWO_PI_I, theta_chars

_ODD = (0.5, 0.5)
_ELL_SWITCH = 1e-2  # |t| below which ell uses its Laurent expansion
# largest share of |theta11'(0)| that the rounding of its series may take
_TAYLOR_RTOL = 1e-8


def _odd_taylor(tau: complex) -> tuple[complex, ...]:
    """theta11^(k)(0) = sum (2 pi i nu)^k e(nu^2 tau/2 + nu/2), k = 1, 3, 5, 7,
    9, over nu = n + 1/2, |nu| < N + 1/2 for the least N <= 64 at which the
    first omitted terms, weighted as in a 9th derivative, (2 pi (N + 1/2))^9
    exp(-pi Im(tau) (N + 1/2)^2), are below _ABS_TOL/4 each.

    a1 = theta11'(0) = -2 pi eta(tau)^3 is far smaller than its terms when
    Im tau is small, and ThirdKindDifferential divides by it: NonConvergent
    when its rounding bound, machine epsilon times the summed moduli of its
    terms, exceeds _TAYLOR_RTOL |a1| (at tau = 0.01i the sum misses a1 by 26
    times its size)."""
    for n in range(1, _MAX_INDEX + 1):
        if (2.0 * np.pi * (n + 0.5)) ** 9 * np.exp(-np.pi * tau.imag * (n + 0.5) ** 2) < _ABS_TOL / 4.0:
            break
    else:
        raise NonConvergent(f"theta11's Taylor series needs more than {_MAX_INDEX} terms a side (Im tau = {tau.imag:g})")
    nu = np.arange(-n, n) + 0.5
    terms = np.exp(TWO_PI_I * (0.5 * nu * nu * tau + 0.5 * nu))
    moments = [(TWO_PI_I * nu) ** k * terms for k in (1, 3, 5, 7, 9)]
    a1 = complex(np.sum(moments[0]))
    bound = np.finfo(np.float64).eps * np.sum(np.abs(moments[0]))
    if not bound <= _TAYLOR_RTOL * abs(a1):
        raise NonConvergent(f"theta11'(0) = {a1:.3g} is lost in the rounding of its series, {bound:.3g} (Im tau = {tau.imag:g})")
    return (a1, *(complex(np.sum(moment)) for moment in moments[1:]))


def odd_chars(spec: NodalCurveSpec):
    """theta[1/2;1/2](z - p1) and theta[1/2;1/2](z - p2) as characteristics
    at z: theta[a;b](z - s) = theta[a; b - s](z)."""
    return ((0.5, 0.5 - spec.p1), (0.5, 0.5 - spec.p2))


class ThirdKindDifferential:
    """Concrete realization of the normalized differential for one spec."""

    def __init__(self, spec: NodalCurveSpec):
        self.spec = spec
        self.tau = spec.tau
        self.p1 = spec.p1
        self.p2 = spec.p2
        self.r1, self.r2, self.kappa_coeff = derive_periods(spec)
        self._poles = np.array([[self.p1], [self.p2]])
        # odd theta Taylor data at its zero, theta11(t) = a1 t + a3 t^3 + ...,
        # so o(t) = theta11(t)/t = a1 + a3 t^2 + ... + a9 t^8 + O(t^10)
        self._odd_over_t_coeffs = tuple(d / math.factorial(k) for d, k in zip(_odd_taylor(self.tau), (1, 3, 5, 7, 9)))

    # -- log-derivative of the odd theta function --------------------------

    def _odd_over_t_series(self, t):
        """o(t) = theta11(t)/t for small |t| from its Taylor series."""
        a1, a3, a5, a7, a9 = self._odd_over_t_coeffs
        t2 = t * t
        return a1 + t2 * (a3 + t2 * (a5 + t2 * (a7 + t2 * a9)))

    def _odd_series(self, t):
        """(o(t), ell(t) - 1/t) for small |t| from the one Taylor series of
        o(t): ell(t) - 1/t = o'(t)/o(t), its log-derivative."""
        _, a3, a5, a7, a9 = self._odd_over_t_coeffs
        t2 = t * t
        o = self._odd_over_t_series(t)
        return o, t * (2.0 * a3 + t2 * (4.0 * a5 + t2 * (6.0 * a7 + t2 * 8.0 * a9))) / o

    def odd_over_t(self, t, th):
        """theta11(t)/t at the points t of a 1-d array from theta11 there;
        within _ELL_SWITCH of 0 from its Taylor data, so regular at t = 0."""
        small = np.abs(t) < _ELL_SWITCH
        out = np.empty_like(t)
        out[~small] = th[~small] / t[~small]
        out[small] = self._odd_over_t_series(t[small])
        return out

    def _ell(self, x, th, thp):
        """ell = theta11'/theta11 at the points x of an array, from theta11
        and theta11' there; where x lies within _ELL_SWITCH of a lattice
        point x0, the Laurent form at x0 instead."""
        s, t = lattice_coords(x, 0.0, self.tau)
        n = np.rint(t)
        x_red = x - np.rint(s) - n * self.tau
        small = np.abs(x_red) < _ELL_SWITCH
        if not small.any():
            return thp / th
        ts = x_red[small]
        if np.any(np.abs(ts) < 1e-12):
            raise PoleAt("ell evaluated at a lattice point")
        out = thp / th
        out[small] = 1.0 / ts + self._odd_series(ts)[1] - TWO_PI_I * n[small]
        return out

    def _chart(self, t, d):
        """(ell(d + t) - ell(t) + 1/t) / (2 pi i) at a chart point t or an
        array of them, from one kernel pass of (theta, theta') of (1/2,
        1/2 + d) and of theta11 at t; ell(t) - 1/t is stable for small |t|
        (no lattice reduction)."""
        t = np.asarray(t, dtype=np.complex128)
        tf = t.reshape(-1)
        shifted, (th, thp) = theta_chars(((0.5, 0.5 + d), _ODD), tf, self.tau, (0, 1))
        small = np.abs(tf) < _ELL_SWITCH
        reg = np.empty_like(tf)
        reg[~small] = thp[~small] / th[~small] - 1.0 / tf[~small]
        reg[small] = self._odd_series(tf[small])[1]
        out = (self._ell(d + tf, *shifted) - reg) / TWO_PI_I
        return complex(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    # -- the differential and its local data -------------------------------

    def eta_from(self, z, odd1, odd2):
        """eta at the points z of a 1-d array from (theta, theta') of the two
        odd_chars at z; raises PoleAt within 1e-12 of p1, p2 mod L."""
        ell1, ell2 = self._ell(z - self._poles, *(np.stack(pair) for pair in zip(odd1, odd2)))
        return (ell1 - ell2) / TWO_PI_I + self.kappa_coeff

    def eta_coeff(self, z):
        """dz-coefficient of eta, from one kernel pass of both odd thetas."""
        z = np.asarray(z, dtype=np.complex128)
        zf = z.reshape(-1)
        out = self.eta_from(zf, *theta_chars(odd_chars(self.spec), zf, self.tau, (0, 1)))
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def h_at_p1(self, t):
        """Holomorphic part of eta at p1: eta(p1+t) - (1/2*pi*i)/t, chart
        z = p1 + t; one kernel pass at t."""
        return self.kappa_coeff - self._chart(t, self.p1 - self.p2)

    def h1_at_p2(self, t):
        """Holomorphic part of eta at p2: eta(p2+t) + (1/2*pi*i)/t, chart
        z = p2 + t; one kernel pass at t."""
        return self._chart(t, self.p2 - self.p1) + self.kappa_coeff


@_per_spec
def third_kind(spec: NodalCurveSpec) -> ThirdKindDifferential:
    """The spec's differential, built once: eta_coeff, h_at_p1 and h1_at_p2
    are its methods."""
    return ThirdKindDifferential(spec)


def period_integral(spec: NodalCurveSpec, contour: str) -> complex:
    """Period of eta over one of the four reference contours.

    gamma1/gamma2 are circles of radius delta/2 resp. eps/2 around p1, p2
    (the values are residues, hence radius-independent); alpha and beta are
    the parallelogram edges q0 -> q0+1 and q0 -> q0+tau.
    """
    diff = third_kind(spec)
    if contour == "gamma1":
        return integrate_circle(diff.eta_coeff, spec.p1, spec.delta / 2)
    if contour == "gamma2":
        return integrate_circle(diff.eta_coeff, spec.p2, spec.eps / 2)
    if contour == "alpha":
        return integrate_polyline(diff.eta_coeff, [spec.q0, spec.q0 + 1])
    if contour == "beta":
        return integrate_polyline(diff.eta_coeff, [spec.q0, spec.q0 + spec.tau])
    raise ValueError(f"unknown contour {contour!r}")
