"""Complex line integrals and continuous-argument tracking.

Integrands here are analytic along the contours, so composite Gauss-Legendre
panels converge spectrally; a panel is accepted when its 24- and 48-node
sums, read from one call of the integrand on both node sets, agree within
the local tolerance.  Both rules are computed here, once per process, from
the three-term Legendre recurrence: each node by Newton's method on P_n
(Golub & Welsch 1969; Hale & Townsend 2013), each weight as
2/((1 - x^2) P_n'(x)^2).  Against 40-digit mpmath the nodes are within
6.2e-17 and the weights within 3.9e-14 relative (numpy's leggauss:
1.3e-12), and building them loads no polynomial package and makes no
LAPACK call.

The sampled log tracker continues log f(z) along a segment by summing
principal logs of ratios of consecutive samples; until each ratio stays well
inside the right half plane it doubles the samples, evaluating only the new
midpoints, so each sample is evaluated once.  From _N_PROBE samples on it
bisects only the failing intervals, at midpoints that doubling evaluates
too (the adaptive step of Ying & Katz, Numer. Math. 53, 1988).  A chain of
failing intervals down to spacing |b - a|/_N_MAX certifies that doubling
fails at every level up to its cap, so a segment through a zero raises
ContourThroughZero "at n=_N_MAX", the level at which doubling fails, after
a few hundred samples rather than 16,385, and a segment that passes ends at
doubling's samples and log change, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContourThroughZero, QuadratureFailure

# absolute error budget of one integral; integrate_segment halves it per split
_QUAD_TOL = 1e-10
_MAX_DEPTH = 13
# samples per segment of the sampled log trackers: first try, the level
# from which a failing segment is bisected rather than doubled, and cap
_N0, _N_PROBE, _N_MAX = 32, 1 << 8, 1 << 14
# bound on |Log ratio| per tracked step, and the largest distance from an
# integer that a winding total snaps across
_MAX_RATIO_LOG, _SNAP_TOL = 0.9, 0.1


def _legendre(n: int, x):
    """P_n(x) and P_n'(x), by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], n even, nodes ascending:
    Newton's method on P_n from cos(pi (k - 1/4)/(n + 1/2)), k = 1..n/2,
    weights 2/((1 - x^2) P_n'(x)^2), the negative half mirrored."""
    x = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.abs(step).max() < 1e-14:
            break
    _, dp = _legendre(n, x)
    w = 2 / ((1 - x * x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


@lru_cache(maxsize=1)
def _gl_nodes():
    """The 24 and then the 48 Gauss-Legendre nodes on [-1, 1] in one array,
    and the weights of each rule."""
    (x24, w24), (x48, w48) = (_gauss_legendre(n) for n in (24, 48))
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


def _interleave(samples, mids):
    """The n + 1 samples of the last axis of `samples` with the n values of
    `mids` between them: 2n + 1 samples along that axis."""
    out = np.empty(samples.shape[:-1] + (2 * samples.shape[-1] - 1,), dtype=np.result_type(samples, mids))
    out[..., ::2] = samples
    out[..., 1::2] = mids
    return out


def _ratio_test(vals):
    """(ok, delta_log) of each row of samples: whether every consecutive
    ratio has |Log| < _MAX_RATIO_LOG, and the sum of those Logs.  A zero
    sample fails its row: its ratios are not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dlogs = np.log(vals[:, 1:] / vals[:, :-1])
        return np.abs(dlogs).max(axis=1) < _MAX_RATIO_LOG, dlogs.sum(axis=1)


def _failing(lo, hi):
    """Which of the intervals with end values lo and hi fail the ratio
    test of _ratio_test."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~(np.abs(np.log(hi / lo)) < _MAX_RATIO_LOG)


def _raised(n, vals, k, probes):
    """The k + 1 samples of level k of a segment, from the n + 1 of level n
    in `vals`, the `probes` (level, odd indices, values) at levels up to k,
    and f at the samples that they lack.  A generator like _bisection, with
    one call, or none when nothing lacks."""
    held = [(odd * (k // level), mid) for level, odd, mid in probes if level <= k]
    lacking = np.ones(k + 1, dtype=bool)
    lacking[:: k // n] = False
    for j, _ in held:
        lacking[j] = False
    lacking = np.flatnonzero(lacking)
    f = (yield lacking / k) if len(lacking) else None
    full = np.empty(k + 1, dtype=vals.dtype)
    full[:: k // n] = vals
    for j, mid in held:
        full[j] = mid
    if f is not None:
        full[lacking] = f
    return full


def _bisection(n, vals):
    """The walk of one segment on from a level n whose n + 1 samples `vals`
    fail the ratio test.  A generator: it yields the fractions x of the
    segment at which it needs f, is sent f there, and returns
    (delta_log, samples) where the uniform walk passes, or None when that
    walk fails at every level up to _N_MAX.

    It bisects only the failing intervals of level n, then only their
    failing halves, and so on.  Every interval of such a chain fails at its
    own level, so a chain that reaches level _N_MAX certifies that the
    uniform walk fails at each level from n to _N_MAX.  Once no chain
    reaches a level k, the uniform walk fails below k and may pass at k:
    the walk takes level k whole, evaluating only the samples it lacks, and
    tests it as the uniform walk does.  Each midpoint is a sample
    (i + 1/2)/k of the uniform walk, so every value and every decision is
    one that walk makes.
    """
    while True:
        i = np.flatnonzero(_failing(vals[:-1], vals[1:]))
        lo, hi = vals[i], vals[i + 1]
        k, probes = n, []
        while len(i):
            if k >= _N_MAX:
                return None
            odd = 2 * i + 1
            mid = yield odd / (2 * k)
            k *= 2
            probes.append((k, odd, mid))
            i = np.column_stack((odd - 1, odd)).ravel()
            lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
            keep = _failing(lo, hi)
            i, lo, hi = i[keep], lo[keep], hi[keep]
        # level k/2 and then level k, so that no call is larger than the
        # uniform walk's doubling to k
        vals = yield from _raised(n, vals, k // 2, probes)
        n, vals = k, (yield from _raised(k // 2, vals, k, probes))
        (ok,), (d,) = _ratio_test(vals[None])
        if ok:
            return complex(d), vals


def _track_edges(f_vec, edges):
    """(delta_log, samples) along each segment (a, b) of `edges`: the
    continuous log change and the n + 1 values f(a + j (b - a)/n), j = 0..n,
    it was read from, so samples[-1] is f(b).

    Every segment is first sampled at n = _N0 points in one f_vec call; a
    segment is done once every consecutive ratio has |Log| < _MAX_RATIO_LOG
    (_ratio_test).  The uniform walk doubles n for the others up to _N_MAX,
    and fails there; each doubling calls f_vec only at the n new midpoints
    a + (i + 1/2)(b - a)/n, which sit between the samples in hand.  This
    walk doubles so up to n = _N_PROBE, and from there it bisects only the
    failing intervals (_bisection): a segment that passes ends at the n and
    the samples of the uniform walk, and one through a zero raises
    ContourThroughZero "at n=_N_MAX", the level at which the uniform walk
    fails, as soon as a chain of failing intervals certifies that it fails
    at every level up to there.  The message names the first segment of
    `edges` that fails so.  Each round makes one f_vec call for all the
    segments it samples, and a segment's log change does not depend on
    which others were walked with it, so one walk over several edges serves
    several readers.
    """
    if not edges:
        return []
    a = np.array([e[0] for e in edges], dtype=np.complex128)[:, None]
    step = np.array([e[1] - e[0] for e in edges], dtype=np.complex128)[:, None]
    out = [None] * len(edges)
    pending = np.arange(len(edges))
    n = _N0
    vals = f_vec((a + np.arange(n + 1) / n * step).ravel()).reshape(len(edges), n + 1)
    while True:
        ok, sums = _ratio_test(vals)
        for k, d, seg, done in zip(pending, sums, vals, ok):
            if done:
                out[k] = (complex(d), seg)
        if ok.all():
            return out
        pending, vals = pending[~ok], vals[~ok]
        if n >= _N_PROBE:
            break
        mids = f_vec((a[pending] + (np.arange(n) + 0.5) / n * step[pending]).ravel())
        vals = _interleave(vals, mids.reshape(len(pending), n))
        n *= 2
    walks = {k: _bisection(n, seg) for k, seg in zip(pending, vals)}
    sent, failed = dict.fromkeys(walks), []
    while True:
        wanted = {}
        for k, f in sent.items():
            try:
                wanted[k] = walks[k].send(f)
            except StopIteration as stop:
                if stop.value is None:
                    failed.append(k)
                else:
                    out[k] = stop.value
        # the first segment that fails is the one named: later ones need no more samples
        first = min(failed, default=len(edges))
        wanted = {k: x for k, x in wanted.items() if k < first}
        if not wanted:
            break
        f = f_vec(np.concatenate([a[k, 0] + x * step[k, 0] for k, x in wanted.items()]))
        sent = dict(zip(wanted, np.split(f, np.cumsum([len(x) for x in wanted.values()])[:-1])))
    if failed:
        lo, hi = edges[min(failed)]
        raise ContourThroughZero(f"sampled log tracking failed on [{lo:.6g}, {hi:.6g}] at n={_N_MAX}")
    return out


def track_log_sampled(f_vec, a: complex, b: complex):
    """Continuous log change of a vectorized integrand along [a, b], and
    f(b).

    Samples the segment at n points, doubling n, and evaluating only the
    new midpoints, until every consecutive ratio has |Log| < 0.9.  Raises
    ContourThroughZero "at n=16384", the level at which that doubling walk
    fails, once a chain of failing intervals certifies that it fails at
    every level up to there (_track_edges).  Much faster than scalar
    stepping when f is vectorized, e.g. theta-based integrands on contour
    walks.
    """
    d, seg = _track_edges(f_vec, [(a, b)])[0]
    return d, complex(seg[-1])


def _log_change_sampled(f_vec, vertices) -> complex:
    """Continuous log change of a vectorized function along a polyline.

    All edges are sampled together, and only those failing the ratio test
    are sampled again, at their new midpoints, so each edge ends at the n
    track_log_sampled gives it.
    """
    verts = list(vertices)
    tracks = _track_edges(f_vec, list(zip(verts[:-1], verts[1:])))
    return sum((d for d, _ in tracks), 0.0 + 0.0j)
