"""Two-component period map on the cut curve.

phi1(P) = P - z0 is the elliptic Abel map.  phi2(P) integrates the
third-kind differential eta = (1/2 pi i) dlog Q + kappa_coeff dz from the
base point, Q the odd-theta quotient

    Q(z) = theta[1/2;1/2](z - p1) / theta[1/2;1/2](z - p2).

theta[1/2;1/2] vanishes only on the lattice, so on the closed cell Q has
its one zero at p1 and its one pole at p2, and R(z) = Q(z) (z - p2)/(z - p1)
has neither (Jacobi triple product: Mumford, Tata Lectures on Theta I,
ch. I par. 14; DLMF 20.5).  phi2 is the closed form

    phi2(z) = [Log((z - p1)/(z - p2)) + log R(z) - L(z0)] / (2 pi i) + kappa_coeff (z - z0),

L the bracket's first two terms.  The principal Log of the first term
jumps only where (z - p1)/(z - p2) is negative real, so phi2's one cut
inside the cell is the segment [p1, p2].  log R is the continuous branch
on the cell: a per-spec table of arg R on a node grid of the cell gives
each point the integer that lifts its principal Log R.  Near p2 the chart
factor g(t) = t e(phi2(p2 + t)) is the same quotient with theta[1/2;1/2](t)
replaced by the regular theta[1/2;1/2](t)/t, holomorphic and nonzero on the
node disk, and the integral of h1 = eta + (1/2 pi i)/t there is the log
change of g, which the circle average a_eps reads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Real

import numpy as np

from .curve import NodalCurveSpec, derive_periods, lattice_coords
from .differentials import odd_chars, third_kind
from .errors import LogBranchUnresolved, PoleAt
from .quadrature import _log_change_sampled, track_log_sampled
from .theta import TWO_PI_I, theta_chars

# nodes per side of the first arg R table, and the most a retry may double to
_ARG_NODES, _ARG_NODES_MAX = 33, 257
# largest change of arg R accepted between neighbouring nodes of the table
_ARG_STEP = math.pi / 4


def _require_inside(spec: NodalCurveSpec, P: complex):
    if not spec.contains(P):
        raise ValueError(f"point {P:.6g} lies outside the closed fundamental cell")


@lru_cache(maxsize=16)
def _q_at_z0(spec: NodalCurveSpec) -> complex:
    (th1,), (th2,) = theta_chars(odd_chars(spec), spec.z0, spec.tau)
    return th1 / th2


def e_phi2_from(spec: NodalCurveSpec, z, th1, th2):
    """e(phi2(z)) at the points z of a 1-d array from th1, th2, the odd
    thetas at z - p1 and z - p2 (a pass of odd_chars at z); written into
    th1, with one array of scratch."""
    ez = (z - spec.z0) * (TWO_PI_I * derive_periods(spec)[2])
    th1 /= th2
    th1 *= np.exp(ez, out=ez)
    th1 /= _q_at_z0(spec)
    return th1


def e_phi2(spec: NodalCurveSpec, z):
    """e(phi2(z)) by the branch-free identity

        e(phi2(z)) = (Q(z)/Q(z0)) e(kappa_coeff (z - z0)),

    single-valued on the cut curve; both odd thetas of Q come from one
    kernel pass at z, and Q(z0) is computed once per spec."""
    z = np.asarray(z, dtype=np.complex128)
    zf = z.reshape(-1)
    (th1,), (th2,) = theta_chars(odd_chars(spec), zf, spec.tau)
    out = e_phi2_from(spec, zf, th1, th2)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def chart_g(spec: NodalCurveSpec, t):
    """g(t) = t e(phi2(p2 + t)) for a chart point or an array of them, from
    one kernel pass of the odd pair at z = p2 + t: e_phi2_from with
    theta11(t) read as theta11(t)/t, so g is finite at t = 0."""
    t = np.asarray(t, dtype=np.complex128)
    tf = t.reshape(-1)
    (th1,), (th2,) = theta_chars(odd_chars(spec), spec.p2 + tf, spec.tau)
    out = e_phi2_from(spec, spec.p2 + tf, th1, third_kind(spec).odd_over_t(tf, th2))
    return complex(out[0]) if t.ndim == 0 else out.reshape(t.shape)


@lru_cache(maxsize=16)
def _chart_g0(spec: NodalCurveSpec) -> complex:
    """g(0) = theta11(p2 - p1) e(kappa_coeff (p2 - z0)) / (theta11'(0) Q(z0))."""
    return chart_g(spec, 0.0)


def _node_offsets(spec: NodalCurveSpec, z: np.ndarray):
    """(z - p1, z - p2) at the points of the 1-d array z, or PoleAt."""
    d1, d2 = z - spec.p1, z - spec.p2
    if not (d1.all() and d2.all()):
        raise PoleAt("phi2 evaluated at an identified point")
    return d1, d2


def _ratio_and_r(spec: NodalCurveSpec, z: np.ndarray, odd=None):
    """(z - p1)/(z - p2) and R(z) at the points of the 1-d array z, with
    theta[1/2;1/2](z - p1) and theta[1/2;1/2](z - p2) from one kernel pass,
    or from odd, the pair from a caller's pass."""
    d1, d2 = _node_offsets(spec, z)
    if odd is None:
        odd = (th for th, in theta_chars(odd_chars(spec), z, spec.tau))
    th1, th2 = odd
    return d1 / d2, (th1 * d2) / (th2 * d1)


@lru_cache(maxsize=16)
def _arg_table(spec: NodalCurveSpec) -> np.ndarray:
    """Continuous arg R at the nodes q0 + (i + j tau)/(n - 1), i, j < n.

    arg R is unwrapped columns-first and rows-first; the table is accepted
    when the two agree and no step between neighbouring nodes reaches
    _ARG_STEP, else the grid is refined.  A node within an eighth of the
    spacing of p1 or p2 moves a quarter spacing along 1: R is analytic
    there, but the two factors of R it is computed from are not."""
    n = _ARG_NODES
    while n <= _ARG_NODES_MAX:
        h = 1.0 / (n - 1)
        u = np.linspace(0.0, 1.0, n)
        nodes = (spec.q0 + u[:, None] + u[None, :] * spec.tau).ravel()
        for p in (spec.p1, spec.p2):
            nodes[np.abs(nodes - p) < h / 8] += h / 4
        arg = np.angle(_ratio_and_r(spec, nodes)[1]).reshape(n, n)
        table = np.unwrap(np.unwrap(arg, axis=0), axis=1)
        other = np.unwrap(np.unwrap(arg, axis=1), axis=0)
        steps = max(np.abs(np.diff(table, axis=0)).max(), np.abs(np.diff(table, axis=1)).max())
        if np.abs(table - other).max() < math.pi and steps < _ARG_STEP:
            return table
        n = 2 * n - 1
    raise LogBranchUnresolved(f"arg R not resolved on a {_ARG_NODES_MAX}-node grid of the cell")


def _log_q(spec: NodalCurveSpec, z: np.ndarray, odd=None) -> np.ndarray:
    """Log((z - p1)/(z - p2)) + log R(z) at the cell points of the 1-d array
    z, the odd pair as _ratio_and_r takes it; log R takes its integer from
    the nearest node of _arg_table."""
    table = _arg_table(spec)
    last = len(table) - 1
    s, t = lattice_coords(z, spec.q0, spec.tau)
    ratio, r = _ratio_and_r(spec, z, odd)
    log_r = np.log(r)
    nearest = table[np.rint(s * last).astype(int), np.rint(t * last).astype(int)]
    turns = np.rint((nearest - log_r.imag) / (2.0 * math.pi))
    return np.log(ratio) + log_r + TWO_PI_I * turns


@lru_cache(maxsize=16)
def _log_q_at_z0(spec: NodalCurveSpec) -> complex:
    return complex(_log_q(spec, np.array([spec.z0]))[0])


def phi1(spec: NodalCurveSpec, P: complex) -> complex:
    """First period-map component: integral of dz from z0, i.e. P - z0."""
    _require_inside(spec, P)
    return complex(P) - spec.z0


def _phi2_at(spec: NodalCurveSpec, z: np.ndarray, odd=None) -> np.ndarray:
    """phi2 at the cell points of the 1-d array z, the odd pair as
    _ratio_and_r takes it."""
    _, _, kappa = derive_periods(spec)
    return (_log_q(spec, z, odd) - _log_q_at_z0(spec)) / TWO_PI_I + kappa * (z - spec.z0)


def phi2(spec: NodalCurveSpec, P):
    """Second period-map component by the closed form, for a cell point or
    an array of them; one kernel pass once the spec's table and L(z0) are
    cached.  Raises PoleAt at p1 and p2."""
    z = np.asarray(P, dtype=np.complex128)
    zf = z.ravel()
    for p in zf:
        _require_inside(spec, p)
    vals = _phi2_at(spec, zf)
    return complex(vals[0]) if z.ndim == 0 else vals.reshape(z.shape)


def phi(spec: NodalCurveSpec, P: complex) -> tuple[complex, complex]:
    """The period map at a cell point: (phi1(P), phi2(P))."""
    return phi1(spec, P), phi2(spec, P)


def divisor_image(spec: NodalCurveSpec, points) -> tuple[complex, complex]:
    """Componentwise sum of phi over a finite list of points, with phi2 of
    all of them from one call."""
    z = np.asarray(points, dtype=np.complex128)
    return complex(np.sum(z - spec.z0)), complex(np.sum(phi2(spec, z)))


def loop_increment(spec: NodalCurveSpec, vertices) -> complex:
    """phi2 increment around a closed polyline (monodromy of the branch)."""
    verts = [complex(v) for v in vertices]
    if abs(verts[0] - verts[-1]) > 1e-12:
        verts.append(verts[0])
    return complex(_log_change_sampled(lambda z: e_phi2(spec, z), verts) / TWO_PI_I)


# -- the circle average at p2 -------------------------------------------------


def _chart_radius(spec: NodalCurveSpec, eps) -> float:
    """eps as a float; ValueError unless it is a real number in (0, spec.eps]
    (a numpy complex would pass the comparisons and lose its imaginary part)."""
    if not (isinstance(eps, Real) and 0 < eps <= spec.eps):
        raise ValueError("chart radius eps must lie in (0, spec.eps]")
    return float(eps)


def a_eps(spec: NodalCurveSpec, eps: float) -> complex:
    """Mean of phi2 over the circle p2 + eps*e(u), branch continued from u=0.

    On the circle phi2 = phi2(p2 + eps) - u + P(eps e(u)) - P(eps), P the
    primitive of h1 with P(0) = 0, which averages to 0 over the circle.  So
    a(eps) = phi2(p2 + eps) - P(eps) - 1/2 = a(eps0) - log(eps/eps0)/(2 pi i),
    with 2 pi i P(eps) the log change of g along [0, eps].  The start value
    at u = 0, the closed form, is continuous in eps while the cut [p1, p2]
    does not leave p2 along the positive real axis.  Raises ValueError
    unless eps lies in (0, spec.eps].
    """
    eps = _chart_radius(spec, eps)
    d_log_g, _ = track_log_sampled(lambda s: chart_g(spec, s), 0j, complex(eps))
    return phi2(spec, spec.p2 + eps) - d_log_g / TWO_PI_I - 0.5
