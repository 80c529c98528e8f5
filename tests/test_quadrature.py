"""Sampled winding numbers of the pulled-back theta function.

`winding_number_sampled` samples every edge of a closed polyline in one
vectorized call and resamples only the edges that fail the ratio test.
Oracles: the scalar step-halving `winding_number`, whose first step is
1/32 of an edge as in the sampled loop, and `track_log_sampled` run edge by
edge, which fixes the sample count each edge must end at.
"""

import numpy as np
import pytest

from nodal_theta.curve import lattice_coords
from nodal_theta.errors import ContourThroughZero
from nodal_theta.inversion import ThetaPullback, count_zeros, locate_zeros, sample_generic_c
from nodal_theta.quadrature import track_log_sampled, winding_number, winding_number_sampled


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
    # the left edge passes 2e-3 from a zero and needs more samples
    verts = box(spec, s - 2e-3, s + 0.2, t - 0.1, t + 0.1)
    f = CountingF(tp.value)
    w = winding_number_sampled(f, verts)
    assert w == winding_number(tp.value, verts)

    n0 = 32
    assert len(f.calls) >= 2
    assert len(f.calls[0]) == 4 * (n0 + 1)
    rounds = {k: 0 for k in range(4)}
    for i, pts in enumerate(f.calls):
        n = n0 << i
        assert len(pts) % (n + 1) == 0
        for chunk in np.split(pts, len(pts) // (n + 1)):
            rounds[verts.index(chunk[0])] += 1
    for k in range(4):
        ref = CountingF(tp.value)
        track_log_sampled(ref, verts[k], verts[k + 1])
        assert rounds[k] == len(ref.calls)
    assert rounds[3] > 1  # the left edge is the last one
    assert min(rounds.values()) == 1
