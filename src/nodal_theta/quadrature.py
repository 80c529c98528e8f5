"""Complex line integrals and continuous-argument tracking.

Integrands here are analytic along the contours, so composite Gauss-Legendre
panels converge spectrally; a panel is accepted when doubling its node count
moves the value by less than the local tolerance.  The log tracker continues
log f(z) along a contour by summing principal logs of consecutive ratios,
halving steps until each ratio stays well inside the right half plane.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

import numpy as np

from .errors import ContourThroughZero, QuadratureFailure

# absolute error budget of one integral; integrate_segment halves it per split
_QUAD_TOL = 1e-10
_MAX_DEPTH = 13
# samples per segment of the sampled log trackers: first try and cap
_N0, _N_MAX = 32, 1 << 14
# bound on |Log ratio| per tracked step, least step of the scalar tracker,
# and the largest distance from an integer that a winding total snaps across
_MAX_RATIO_LOG, _MIN_STEP, _SNAP_TOL = 0.9, 1e-9, 0.1


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel(f, a: complex, b: complex, n: int) -> complex:
    x, w = _gl_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = f(mid + half * x)
    return half * complex(np.sum(w * vals))


def integrate_segment(f, a, b, tol: float = _QUAD_TOL, depth: int = 0) -> complex:
    """Adaptive Gauss-Legendre integral of a vectorized complex integrand
    along the straight segment [a, b]."""
    coarse = _panel(f, a, b, 24)
    fine = _panel(f, a, b, 48)
    if abs(fine - coarse) <= max(tol, 1e-16 * abs(fine)):
        return fine
    if depth >= _MAX_DEPTH:
        raise QuadratureFailure(
            f"segment [{a:.6g}, {b:.6g}] did not converge (err {abs(fine - coarse):.3g})"
        )
    mid = 0.5 * (a + b)
    return integrate_segment(f, a, mid, tol / 2, depth + 1) + integrate_segment(
        f, mid, b, tol / 2, depth + 1
    )


def integrate_polyline(f, vertices, tol: float = _QUAD_TOL) -> complex:
    """Integral of f dz along the polyline through `vertices`."""
    verts = list(vertices)
    if len(verts) < 2:
        return 0.0 + 0.0j
    tol_seg = tol / max(1, len(verts) - 1)
    return sum(
        integrate_segment(f, verts[k], verts[k + 1], tol_seg) for k in range(len(verts) - 1)
    )


def integrate_circle(f, center, radius: float, tol: float = _QUAD_TOL) -> complex:
    """Integral of f dz along the circle center + radius*e(u), u in [0, 1]."""

    def g(u):
        u = np.asarray(u)
        z = center + radius * np.exp(2j * np.pi * u)
        return f(z) * (2j * np.pi * radius * np.exp(2j * np.pi * u))

    return integrate_segment(g, 0.0, 1.0, tol)


def track_log(f, a: complex, b: complex, f_a: complex | None = None):
    """Continuous continuation of log f along the segment [a, b].

    Returns (delta_log, f_b): the accumulated change of log f and the value
    f(b).  The first step is 1/_N0 of the segment, as in the sampled
    tracker; steps are halved until each consecutive value ratio satisfies
    |Log ratio| <= _MAX_RATIO_LOG, so the tracked argument never jumps by a
    half turn.  Raises ContourThroughZero when halving bottoms out, which
    indicates f vanishes on or very near the segment.  Kept as the scalar
    oracle of the sampled trackers.
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


def _closed(vertices) -> list:
    verts = list(vertices)
    return verts if verts[0] == verts[-1] else verts + [verts[0]]


def _snap_winding(total: complex) -> int:
    """The integer total/(2*pi*i); raises ContourThroughZero when total is
    farther than _SNAP_TOL from one, which signals a zero on the contour."""
    w = total.imag / (2 * np.pi)
    w_int = round(w)
    if abs(w - w_int) > _SNAP_TOL or abs(total.real) > _SNAP_TOL:
        raise ContourThroughZero(
            f"winding integral {total/(2j*np.pi):.6g} is not an integer"
        )
    return int(w_int)


def _track_edges(f_vec, edges):
    """(delta_log, samples) along each segment (a, b) of `edges`: the
    continuous log change and the n + 1 values f(a + j (b - a)/n), j = 0..n,
    it was read from, so samples[-1] is f(b).

    Every pending segment is sampled at n = _N0 points in one f_vec call; a
    segment is done once every consecutive ratio has |Log| < _MAX_RATIO_LOG,
    and the others are sampled again at 2n, up to _N_MAX.  One walk over
    several edges thus serves several readers: an edge's log change does not
    depend on which other edges were walked with it.
    """
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


def track_log_sampled(f_vec, a: complex, b: complex):
    """Continuous log change of a vectorized integrand along [a, b].

    Samples the segment at n points, doubling n until every consecutive
    ratio has |Log| < 0.9.  Much faster than scalar stepping when f is
    vectorized, e.g. theta-based integrands on contour walks.
    """
    d, seg = _track_edges(f_vec, [(a, b)])[0]
    return d, complex(seg[-1])


def _log_change_sampled(f_vec, vertices) -> complex:
    """Continuous log change of a vectorized function along a polyline.

    All edges are sampled together, and only those failing the ratio test
    are resampled, so each edge ends at the n track_log_sampled gives it.
    """
    verts = list(vertices)
    tracks = _track_edges(f_vec, list(zip(verts[:-1], verts[1:])))
    return sum((d for d, _ in tracks), 0.0 + 0.0j)


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
