"""Two-component period map on the cut curve, with explicit branch tracking.

phi1(P) = P - z0 is the elliptic Abel map.  phi2(P) integrates the
third-kind differential from the base point along a path inside the closed
fundamental parallelogram; its value is computed from the continuous
continuation of log of the odd-theta quotient

    Q(z) = theta[1/2;1/2](z - p1) / theta[1/2;1/2](z - p2)

as phi2 = (log Q(P) - log Q(z0)) / (2*pi*i) + kappa_coeff * (P - z0).

The default path is the straight segment from z0, with a deterministic
detour through the cell midpoint when the segment comes too close to an
identified point.  Near p2 the chart continues phi2 with the pole term split
off analytically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import NodalCurveSpec, derive_periods
from .differentials import third_kind
from .errors import BranchStepTooLarge, ContourThroughZero, PoleProximity
from .quadrature import _log_change_sampled, integrate_segment
from .theta import TWO_PI_I, e_func, theta_char


@dataclass(frozen=True)
class AbelJacobiValue:
    phi1: complex
    phi2: complex

    def as_tuple(self) -> tuple[complex, complex]:
        return (self.phi1, self.phi2)


@dataclass(frozen=True)
class BranchedPath:
    """Polyline from the base point together with the phi2 value its branch
    continuation assigns to the endpoint."""

    vertices: tuple[complex, ...]
    branch_state: complex

    @property
    def endpoint(self) -> complex:
        return self.vertices[-1]


def _segment_point_distance(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    u = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    u = min(1.0, max(0.0, u))
    return abs(p - (a + u * ab))


def path_margin(spec: NodalCurveSpec) -> float:
    return min(spec.delta, spec.eps) / 4.0


def _path_clears_poles(spec: NodalCurveSpec, vertices, margin: float) -> bool:
    poles = spec.pole_translates()
    for k in range(len(vertices) - 1):
        a, b = vertices[k], vertices[k + 1]
        for p in poles:
            if _segment_point_distance(a, b, p) < margin:
                return False
    return True


def _require_inside(spec: NodalCurveSpec, P: complex):
    if not spec.contains(P):
        raise ValueError(f"point {P:.6g} lies outside the closed fundamental cell")


def default_path_vertices(spec: NodalCurveSpec, P: complex) -> tuple[complex, ...]:
    """Straight segment z0 -> P, or a deterministic detour when it grazes a pole."""
    _require_inside(spec, P)
    margin = path_margin(spec)
    straight = (spec.z0, P)
    if _path_clears_poles(spec, straight, margin):
        return straight
    center = spec.point(0.5, 0.5)
    for waypoint in (
        center,
        center + 0.2 + 0.2 * spec.tau,
        center - 0.2 - 0.2 * spec.tau,
        center + 0.2 - 0.2 * spec.tau,
        center - 0.2 + 0.2 * spec.tau,
    ):
        cand = (spec.z0, waypoint, P)
        if _path_clears_poles(spec, cand, margin):
            return cand
    raise PoleProximity(f"no admissible path from {spec.z0:.6g} to {P:.6g}")


def _theta_quotient(spec: NodalCurveSpec):
    """The odd-theta quotient Q; vectorized in z."""
    odd = (0.5, 0.5)

    def q(z):
        return theta_char(odd, z - spec.p1, spec.tau) / theta_char(odd, z - spec.p2, spec.tau)

    return q


@lru_cache(maxsize=16)
def _theta_quotient_at_z0(spec: NodalCurveSpec) -> complex:
    return _theta_quotient(spec)(spec.z0)


def e_phi2(spec: NodalCurveSpec, z):
    """e(phi2(z)) by the branch-free identity

        e(phi2(z)) = (Q(z)/Q(z0)) e(kappa_coeff (z - z0)),

    single-valued on the cut curve; Q(z0) is computed once per spec."""
    z = np.asarray(z, dtype=np.complex128) if isinstance(z, np.ndarray) else z
    _, _, kappa = derive_periods(spec)
    return _theta_quotient(spec)(z) / _theta_quotient_at_z0(spec) * e_func(kappa * (z - spec.z0))


def trace_path(spec: NodalCurveSpec, vertices) -> BranchedPath:
    """Continue phi2 along the polyline and record the endpoint value."""
    verts = tuple(complex(v) for v in vertices)
    if abs(verts[0] - spec.z0) > 1e-12:
        raise ValueError("paths must start at the base point z0")
    for v in verts:
        _require_inside(spec, v)
    if not _path_clears_poles(spec, verts, path_margin(spec)):
        raise PoleProximity("path runs inside the pole safety margin")
    try:
        total = _log_change_sampled(_theta_quotient(spec), verts)
    except ContourThroughZero as exc:
        raise BranchStepTooLarge(str(exc)) from exc
    kappa = third_kind(spec).kappa_coeff
    phi2_val = total / TWO_PI_I + kappa * (verts[-1] - verts[0])
    return BranchedPath(vertices=verts, branch_state=complex(phi2_val))


@lru_cache(maxsize=16)
def default_path(spec: NodalCurveSpec, P: complex) -> BranchedPath:
    """The traced default path to P.  Cached per (spec, P), so that callers
    that evaluate phi at one point twice (as the corrected and the stated
    inverse of one curve point do) walk its log once; BranchedPath is
    frozen, so the callers may share it."""
    return trace_path(spec, default_path_vertices(spec, P))


def phi1(spec: NodalCurveSpec, P: complex) -> complex:
    """First period-map component: integral of dz from z0, i.e. P - z0."""
    _require_inside(spec, P)
    return complex(P) - spec.z0


def phi2(spec: NodalCurveSpec, P: complex, path: BranchedPath | None = None) -> complex:
    """Second period-map component along the given (or default) path."""
    if path is None:
        path = default_path(spec, P)
    elif abs(path.endpoint - complex(P)) > 1e-10:
        raise ValueError("path endpoint does not match P")
    return path.branch_state


def phi(spec: NodalCurveSpec, P: complex, path: BranchedPath | None = None) -> AbelJacobiValue:
    return AbelJacobiValue(phi1=phi1(spec, P), phi2=phi2(spec, P, path))


def divisor_image(spec: NodalCurveSpec, points) -> tuple[complex, complex]:
    """Componentwise sum of phi over a finite list of points.

    Entries are either points or (point, BranchedPath) pairs.
    """
    w1 = 0.0 + 0.0j
    w2 = 0.0 + 0.0j
    for entry in points:
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], BranchedPath):
            pt, path = entry
        else:
            pt, path = entry, None
        val = phi(spec, pt, path)
        w1 += val.phi1
        w2 += val.phi2
    return (w1, w2)


def loop_increment(spec: NodalCurveSpec, vertices) -> complex:
    """phi2 increment around a closed polyline (monodromy of the branch)."""
    verts = [complex(v) for v in vertices]
    if abs(verts[0] - verts[-1]) > 1e-12:
        verts.append(verts[0])
    return complex(_log_change_sampled(_theta_quotient(spec), verts) / TWO_PI_I)


# -- the chart continuation near p2 and the circle average -------------------


def phi2_chart_p2(spec: NodalCurveSpec, t) -> complex:
    """phi2(p2 + t) for |t| < eps, pole term split off analytically.

    The branch starts from the default-path value at the chart anchor
    t = eps on the positive real axis and continues radially after sweeping
    the principal argument of t, so it is deterministic for all t off the
    chart's negative real axis.
    """
    diff = third_kind(spec)
    a0 = spec.eps
    base = phi2(spec, spec.p2 + a0)
    t = np.asarray(t, dtype=np.complex128)
    logs = np.log(t)  # principal branch per entry
    vals = base - (logs - math.log(a0)) / TWO_PI_I + diff.h1_primitive(t) - diff.h1_primitive(a0)
    if t.ndim == 0:
        return complex(vals)
    return vals


def a_eps(spec: NodalCurveSpec, eps: float) -> complex:
    """Mean of phi2 over the circle p2 + eps*e(u), branch continued from u=0.

    On the circle phi2 = phi2_chart_p2(eps) - u + P(eps e(u)) - P(eps), P the
    primitive of h1 with P(0) = 0, which averages to 0 over the circle.  So
    a(eps) = phi2_chart_p2(eps) - P(eps) - 1/2 = a(eps0) - log(eps/eps0)/(2 pi i).
    The start value at u = 0, the radial continuation of the default-path
    branch, is continuous in eps; the default path itself can switch to a
    detour (and another integer branch) near p2.
    """
    return phi2_chart_p2(spec, eps) - third_kind(spec).h1_primitive(eps) - 0.5


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
            spec.quad_tol,
        )
    )
    restarted = phi2_chart_p2(spec, eps * cmath.exp(2j * math.pi * u0))
    gap = complex(restarted - continued)
    return base + gap * (1.0 - u0)


def a_eps_bruteforce(spec: NodalCurveSpec, eps: float, n: int = 256) -> complex:
    """Direct trapezoid double-quadrature oracle for a_eps (slow, test use)."""
    diff = third_kind(spec)
    base = phi2_chart_p2(spec, eps)
    us = np.linspace(0.0, 1.0, n + 1)
    t = eps * np.exp(TWO_PI_I * us)
    deriv = diff.h1_at_p2(t) * TWO_PI_I * t
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (deriv[1:] + deriv[:-1]) * np.diff(us))))
    phi2_u = base - us + inner
    return np.trapezoid(phi2_u, us)
