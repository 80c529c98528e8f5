"""Complex line integrals and continuous-argument tracking.

Integrands here are analytic along the contours, so composite Gauss-Legendre
panels converge spectrally; a panel is accepted when its 24- and 48-node
sums, read from one call of the integrand on both node sets, agree within
the local tolerance.  The sampled log tracker continues log f(z) along a
segment by summing principal logs of ratios of consecutive samples, and
doubles the samples until each ratio stays well inside the right half
plane.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContourThroughZero, QuadratureFailure

# absolute error budget of one integral; integrate_segment halves it per split
_QUAD_TOL = 1e-10
_MAX_DEPTH = 13
# samples per segment of the sampled log trackers: first try and cap
_N0, _N_MAX = 32, 1 << 14
# bound on |Log ratio| per tracked step, and the largest distance from an
# integer that a winding total snaps across
_MAX_RATIO_LOG, _SNAP_TOL = 0.9, 0.1


@lru_cache(maxsize=1)
def _gl_nodes():
    """The 24 and then the 48 Gauss-Legendre nodes on [-1, 1] in one array,
    and the weights of each rule."""
    (x24, w24), (x48, w48) = (np.polynomial.legendre.leggauss(n) for n in (24, 48))
    return np.concatenate((x24, x48)), w24, w48


def _panel(f, a: complex, b: complex) -> tuple[complex, complex]:
    """(coarse, fine): the 24- and 48-node Gauss-Legendre sums of f over
    [a, b], from one call of f on both node sets."""
    x, w24, w48 = _gl_nodes()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = f(mid + half * x)
    return half * complex(np.sum(w24 * vals[:24])), half * complex(np.sum(w48 * vals[24:]))


def integrate_segment(f, a, b, tol: float = _QUAD_TOL, depth: int = 0) -> complex:
    """Adaptive Gauss-Legendre integral of a vectorized complex integrand
    along the straight segment [a, b]."""
    coarse, fine = _panel(f, a, b)
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
