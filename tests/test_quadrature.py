"""Sampled winding numbers of the pulled-back theta function, the sampled
log walk, the integrand calls of a quadrature panel, and the panel's
Gauss-Legendre rules.

`winding_number_sampled` samples every edge of a closed polyline in one
vectorized call and samples again, at their new midpoints only, the edges
that fail the ratio test.  Oracles: the scalar step-halving
`winding_number`, whose first step is 1/32 of an edge as in the sampled
loop; `track_log_sampled` run edge by edge, which fixes the sample count
each edge must end at; and `track_edges_resampling`, the walk that
evaluates every sample again at each doubling, whose log changes and
samples the walk keeps bit for bit.  The rules' oracle is mpmath's own
Gauss-Legendre nodes at 40 digits.
"""

import cmath
import warnings

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from nodal_theta import quadrature
from nodal_theta.abel_jacobi import a_eps
from nodal_theta.curve import lattice_coords
from nodal_theta.branches import beta_k
from nodal_theta.errors import ContourThroughZero, NoPreimage
from nodal_theta.inversion import (
    DMap,
    ThetaPullback,
    count_zeros,
    kappa_vector,
    locate_zeros,
    riemann_constants,
    sample_generic_c,
)
from nodal_theta.quadrature import _N_MAX, _N_PROBE, _gl_nodes, _track_edges, integrate_segment, track_log_sampled
from nodal_theta.theta import TWO_PI_I
from oracles import track_edges_resampling, winding_number, winding_number_sampled


def box(spec, s0, s1, t0, t1):
    return [spec.point(s, t) for s, t in ((s0, t0), (s1, t0), (s1, t1), (s0, t1), (s0, t0))]


@pytest.fixture(scope="module")
def pullback(spec_ab):
    c, _ = sample_generic_c(spec_ab, np.random.default_rng(101))
    tp = ThetaPullback(c, spec_ab)
    return tp, locate_zeros(tp)


class CountingF:
    """Wraps f_vec and keeps every array it was called with."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, z):
        self.calls.append(np.array(z))
        return self.f(z)


def test_matches_scalar_oracle(pullback):
    tp, zeros = pullback
    spec = tp.spec
    boxes = []
    for j in (0.0, 7e-4, -9e-4, 1.7e-3):
        for s0, s1, t0, t1 in ((0, 1, 0, 1), (0, 0.5, 0, 1), (0.5, 1, 0, 1), (0, 1, 0, 0.5), (0, 1, 0.5, 1)):
            boxes.append((s0 + j, s1 + j, t0 + j, t1 + j))
    for z in list(zeros) + [spec.p2]:
        s, t = lattice_coords(z, spec.q0, spec.tau)
        boxes.append((s - 0.04, s + 0.05, t - 0.03, t + 0.06))
    seen = set()
    for b in boxes:
        w = winding_number_sampled(tp.value, box(spec, *b))
        assert w == winding_number(tp.value, box(spec, *b))
        seen.add(w)
    assert {-1, 1} <= seen


def test_scalar_winding_counts_zeros_on_whole_cell(spec_ab):
    # one edge per side of the cell: the scalar tracker's first step must not
    # span a whole edge, or one small ratio can hide a full turn of T_c
    rng = np.random.default_rng(7)
    for _ in range(10):
        c, _ = sample_generic_c(spec_ab, rng)
        tp = ThetaPullback(c, spec_ab)
        assert winding_number(tp.value, box(spec_ab, 0, 1, 0, 1)) + 1 == count_zeros(tp)


def test_edge_through_zero_raises(pullback):
    tp, zeros = pullback
    spec = tp.spec
    for z in zeros:
        s, t = lattice_coords(z, spec.q0, spec.tau)
        verts = box(spec, s, s + 0.2, t - 0.1, t + 0.1)
        with pytest.raises(ContourThroughZero):
            winding_number_sampled(tp.value, verts)
        with pytest.raises(ContourThroughZero):
            winding_number(tp.value, verts)


def test_resamples_only_failing_edges(pullback):
    tp, zeros = pullback
    spec = tp.spec
    s, t = lattice_coords(zeros[0], spec.q0, spec.tau)
    # the left edge passes `gap` from a zero and needs more samples: at 2e-3
    # it doubles to pass, at 1e-4 it fails at n = _N_PROBE too and is bisected
    for gap in (2e-3, 1e-4):
        verts = box(spec, s - gap, s + 0.2, t - 0.1, t + 0.1)
        f = CountingF(tp.value)
        w = winding_number_sampled(f, verts)
        assert w == winding_number(tp.value, verts)
        levels, rounds = assert_calls_hold_only_lacking_samples(tp.value, list(zip(verts[:-1], verts[1:])), f.calls)
        assert (levels[3] > _N_PROBE) == (gap < 1e-3)
        assert rounds[3] > 1  # the left edge is the last one
        assert min(rounds) == 1


def assert_calls_hold_only_lacking_samples(f_vec, edges, calls):
    """The first call holds the n0 + 1 samples of every edge; each later
    call holds, edge by edge and in edge order, only samples that an edge
    that still fails lacks.  Over all calls each edge evaluates the samples
    it ends with, each once, in as many calls as its walk alone makes.  The
    edges share no sample but their ends.  Returns the level n each edge
    ends at and the number of calls that hold its samples."""
    n0 = 32
    assert len(calls) >= 2
    assert np.array_equal(calls[0], np.concatenate([a + np.linspace(0.0, 1.0, n0 + 1) * (b - a) for a, b in edges]))
    samples, solo_calls = [], []
    for a, b in edges:
        ref = CountingF(f_vec)
        (_, seg), = _track_edges(ref, [(a, b)])
        n = len(seg) - 1
        samples.append(a + np.arange(n + 1) / n * (b - a))
        solo_calls.append(len(ref.calls))
    held = [list(p) for p in np.split(calls[0], len(edges))]
    rounds = [1] * len(edges)
    for pts in calls[1:]:
        owner = np.full(len(pts), -1)
        for k, seg in enumerate(samples):
            owner[np.isin(pts, seg[1:-1])] = k
        assert np.all(owner >= 0) and np.all(np.diff(owner) >= 0)
        for k in np.unique(owner):
            held[k].extend(pts[owner == k])
            rounds[k] += 1
    for got, seg in zip(held, samples):
        assert np.array_equal(np.sort_complex(np.array(got)), np.sort_complex(seg))
    assert rounds == solo_calls
    return [len(seg) - 1 for seg in samples], rounds


def assert_same_walk(f_vec, edges, got):
    """`got`, a walk of f_vec along `edges`, has the log changes and the
    samples of the resampling walk, bit for bit."""
    ref = track_edges_resampling(f_vec, edges)
    assert len(got) == len(ref)
    for (d, seg), (d_ref, seg_ref) in zip(got, ref):
        assert d == d_ref
        assert np.array_equal(seg, seg_ref)


def recorded_walks(monkeypatch):
    """(f_vec, edges, result) of every quadrature._track_edges call from now on."""
    walks = []
    track = quadrature._track_edges

    def record(f_vec, edges):
        walks.append((f_vec, edges, track(f_vec, edges)))
        return walks[-1][2]

    monkeypatch.setattr(quadrature, "_track_edges", record)
    return walks


@pytest.mark.bitwise
class TestEachSampleOnce:
    """The walk evaluates each sample once, and keeps the log changes and
    the samples of the walk that evaluated every sample again."""

    def test_cell_walks(self, spec_ab):
        # the q0 cell and the fallback cell of five pullbacks
        rng = np.random.default_rng(43)
        tau = spec_ab.tau
        for _ in range(5):
            c, _ = sample_generic_c(spec_ab, rng)
            tp = ThetaPullback(c, spec_ab)
            for fallback in (False, True):
                a, got = tp._cell_walk(fallback)
                edges = [(a, a + 1.0), (a + 1.0, a + 1.0 + tau), (a + tau, a + 1.0 + tau), (a, a + tau)]
                assert_same_walk(tp.value, edges, got)

    def test_a_walk_that_doubles(self, pullback):
        # the left edge of test_resamples_only_failing_edges
        tp, zeros = pullback
        spec = tp.spec
        s, t = lattice_coords(zeros[0], spec.q0, spec.tau)
        edges = [(spec.point(s - 2e-3, t + 0.1), spec.point(s - 2e-3, t - 0.1))]
        f = CountingF(tp.value)
        got = _track_edges(f, edges)
        assert len(f.calls) > 1
        assert sum(map(len, f.calls)) == len(got[0][1])  # each sample once
        assert_same_walk(tp.value, edges, got)

    def test_d2_walk_past_a_zero(self, spec_ab, monkeypatch):
        # a zero of T_c just off the chart ray: d2's walk doubles, and reads
        # the ray where the resampling walk reads f afresh
        c, _ = sample_generic_c(spec_ab, np.random.default_rng(71))
        dm = DMap(spec_ab, c[0], 0.03)
        _, _, C, D = dm.mobius_coeffs(np.array([0.37 * dm.eps + 0j]))
        c2 = complex(-cmath.log(-C[0] / D[0]) / TWO_PI_I) - 0.002
        walks = recorded_walks(monkeypatch)
        dm.d2(c2)
        (_, edges, got), = walks
        assert len(got[0][1]) > 33
        assert_same_walk(lambda t: dm.f(t, c2), edges, got)

    def test_a_eps_walk(self, spec_ab, monkeypatch):
        walks = recorded_walks(monkeypatch)
        a_eps(spec_ab, spec_ab.eps / 2)
        (f_vec, edges, got), = walks
        assert_same_walk(f_vec, edges, got)

    def test_a_walk_through_a_zero_raises_at_the_cap(self, pullback):
        # the same message, and no RuntimeWarning on an exact zero sample
        tp, zeros = pullback
        z = zeros[0]
        for f_vec, edges in ((tp.value, [(z - 0.01, z + 0.01)]), (lambda x: x, [(1.0 + 0j, 2.0 + 0j), (-1.0 + 0j, 1.0 + 0j)])):
            with pytest.raises(ContourThroughZero) as ref:
                track_edges_resampling(f_vec, edges)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContourThroughZero) as got:
                    _track_edges(f_vec, edges)
            assert str(got.value) == str(ref.value)
            assert "at n=16384" in str(got.value)


    @pytest.mark.parametrize("k", [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
    def test_walks_near_a_zero_at_the_cap_spacing(self, pullback, k):
        # a segment k |b - a|/_N_MAX from a zero of T_c: the uniform walk
        # fails at the cap, or passes close to it, where the walk bisects
        # failing intervals; alone and as the second edge of a square on
        # the side away from the zero
        tp, zeros = pullback
        length, u = 0.02, cmath.exp(0.3j)
        a = zeros[0] + 1j * u * k * length / _N_MAX - 0.37 * length * u
        b, side = a + length * u, 1j * u * length
        raised = [
            assert_same_outcome(tp.value, edges)
            for edges in ([(a, b)], [(a + side, a), (a, b), (b, b + side), (b + side, a + side)])
        ]
        assert raised[0] == raised[1]
        if k <= 0.5:
            assert raised[0]
        if k >= 2.0:
            assert not raised[0]

    def test_the_message_names_the_first_edge_that_fails_at_the_cap(self):
        # Edge 0 fails at n = 32 to 512 on a ramp of arg f, which its halves
        # pass at 1024.  Level 1024 then fails on a full turn of arg f that
        # a level-512 interval holds whole, so the walk bisects again and
        # certifies edge 0 a round later than edge 1, a segment through a
        # zero.  Both fail at the cap, and the message names edge 0.
        ramp, turn = 5 / 1024, 1e-9

        def f_vec(z):
            x = z.real
            phase = 3.0 * np.clip((x - 0.25) / ramp, 0.0, 1.0)
            phase += 2 * np.pi * np.clip((x - 717 / 1024) / turn + 0.5, 0.0, 1.0)
            return np.where(z.imag > 1.0, z - 2j, np.exp(1j * phase))

        edges = [(0j, 1 + 0j), (2j - 1, 2j + 1)]
        calls = []
        for edge in edges:
            f = CountingF(f_vec)
            with pytest.raises(ContourThroughZero):
                _track_edges(f, [edge])
            calls.append(len(f.calls))
        assert calls[1] < calls[0]
        assert assert_same_outcome(f_vec, edges)
        with pytest.raises(ContourThroughZero, match=r"^sampled log tracking failed on \[0\+0j, 1\+0j\] at n=16384$"):
            _track_edges(f_vec, edges)


def assert_same_outcome(f_vec, edges) -> bool:
    """A walk of f_vec along `edges` is the resampling walk's, bit for bit
    (assert_same_walk), or both raise the same message.  Returns whether
    they raised."""
    try:
        track_edges_resampling(f_vec, edges)
    except ContourThroughZero as exc:
        with pytest.raises(ContourThroughZero) as got:
            _track_edges(f_vec, edges)
        assert str(got.value) == str(exc)
        return True
    assert_same_walk(f_vec, edges, _track_edges(f_vec, edges))
    return False


class TestAWalkThroughAZero:
    """A walk through a zero of T_c raises once a chain of failing
    intervals certifies that the uniform walk fails up to n = _N_MAX: it
    evaluates a few hundred points where that walk evaluated 16,385 on the
    edge through the zero, and raises that walk's message."""

    def test_the_cell_walk(self, spec_ab, kernel_passes):
        # c2 puts a zero of T_c on the bottom edge of the cell walk, and so
        # one on the top edge, its tau translate
        c1 = sample_generic_c(spec_ab, np.random.default_rng(101))[0][0]
        z = spec_ab.q0 + 0.37
        # at fixed c1, T_c(z) = alpha + beta e(-c2)
        t0, t1 = (ThetaPullback((c1, c2), spec_ab).value(z) for c2 in (0.0, 0.5))
        tp = ThetaPullback((c1, -cmath.log((t0 + t1) / (t1 - t0)) / TWO_PI_I), spec_ab)
        tau, a = spec_ab.tau, spec_ab.q0
        edges = [(a, a + 1.0), (a + 1.0, a + 1.0 + tau), (a + tau, a + 1.0 + tau), (a, a + tau)]
        with pytest.raises(ContourThroughZero) as ref:
            track_edges_resampling(tp.value, edges)
        kernel_passes.clear()
        with pytest.raises(ContourThroughZero) as got:
            tp._cell_walk()
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(f"sampled log tracking failed on [{a:.6g}, {a + 1.0:.6g}]")
        assert sum(kernel_passes.points) < 800

    def test_a_segment_through_a_located_zero(self, pullback, kernel_passes):
        # the walk that the benchmark's thm51 workload makes after its ops
        tp, zeros = pullback
        z = zeros[0]
        with pytest.raises(ContourThroughZero) as ref:
            track_edges_resampling(tp.value, [(z - 0.01, z + 0.01)])
        kernel_passes.clear()
        with pytest.raises(ContourThroughZero) as got:
            track_log_sampled(tp.value, z - 0.01, z + 0.01)
        assert str(got.value) == str(ref.value)
        assert sum(kernel_passes.points) < 400

    def test_d2_through_a_zero_on_the_chart_ray(self, spec_ab, kernel_passes):
        # the stated inverse at a target whose only candidate c2 puts a zero
        # of T_c on the chart ray at t = 0.37 eps
        eps = 0.03
        c1 = sample_generic_c(spec_ab, np.random.default_rng(71))[0][0]
        dm = DMap(spec_ab, c1, eps)
        _, _, C, D = dm.mobius_coeffs(np.array([0.37 * dm.eps + 0j]))
        c2 = complex(-cmath.log(-C[0] / D[0]) / TWO_PI_I)
        with pytest.raises(ContourThroughZero) as ref:
            track_edges_resampling(lambda t: dm.f(t, c2), [(0j, complex(dm.eps))])
        kap = kappa_vector(riemann_constants(spec_ab, eps), spec_ab, "half_tau")
        v = dm.c1 * dm.r1 + np.log(dm.f(dm.eps, c2)) / TWO_PI_I
        kernel_passes.clear()
        with pytest.raises(NoPreimage) as got:
            beta_k((dm.c1 + kap[0], v + kap[1]), spec_ab, eps, use_correction=False, _kappa_cache=kap)
        assert str(got.value) == f"a zero of T_c lies on the chart ray at the only candidate: {ref.value}"
        assert sum(kernel_passes.points) < 400


def test_panel_calls_the_integrand_once():
    # exp converges on the first panel: its 24- and 48-node sums come from
    # one call on all 72 nodes
    f = CountingF(np.exp)
    got = integrate_segment(f, 0.0, 1.0 + 0.5j)
    assert abs(got - (np.exp(1.0 + 0.5j) - 1.0)) < 1e-14
    assert [len(z) for z in f.calls] == [72]


def gl_rule(n):
    """(nodes, weights) of the n-point rule of _gl_nodes, n = 24 or 48."""
    x, w24, w48 = _gl_nodes()
    return (x[:24], w24) if n == 24 else (x[24:], w48)


# mpmath's rule of degree d has 3 * 2^(d - 1) points
@pytest.mark.parametrize("n, degree", [(24, 4), (48, 5)])
def test_gl_rule_matches_mpmath(n, degree):
    # nodes to 1e-16 absolute and weights to 1e-13 relative; numpy's
    # leggauss misses the 48-point weights by 1.3e-12
    x, w = gl_rule(n)
    with mpmath.workdps(40):
        ref = sorted(GaussLegendre(mpmath.mp).calc_nodes(degree, mpmath.mp.prec))
        assert len(ref) == n
        node_err = max(abs(mpmath.mpf(xi) - xr) for xi, (xr, _) in zip(x, ref))
        weight_err = max(abs(mpmath.mpf(wi) - wr) / wr for wi, (_, wr) in zip(w, ref))
    assert node_err < 1e-16
    assert weight_err < 1e-13


@pytest.mark.parametrize("n", [24, 48])
def test_gl_rule_is_symmetric(n):
    x, w = gl_rule(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", [24, 48])
def test_gl_rule_integrates_polynomials_of_degree_below_2n(n):
    x, w = gl_rule(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.sum(w * x**k) - exact) < 1e-15, k
