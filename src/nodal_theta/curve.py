"""Problem instance for the nodal curve and congruence tests modulo the
rank-3 period group.

The curve is C/(Z + Z*tau) with two marked points p1, p2 identified to a
node.  All point data is canonicalized into the fundamental parallelogram
{q0 + s + t*tau : 0 <= s, t < 1}, whose edges realize the two cuts.  The
period group Gamma is the subgroup of C^2 spanned by (0,1), (1,r1) and
(tau,r2), where (r1, r2) are the real cut periods of the third-kind
differential constructed in `differentials`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

_CONTAINS_SLACK = 1e-9  # lattice-coordinate slack of NodalCurveSpec.contains
_TOROIDAL_BOUND, _TOROIDAL_TOL = 50, 1e-9  # search box and integer tolerance of is_toroidal


@dataclass(frozen=True)
class PeriodGroup:
    """Rank-3 discrete subgroup of C^2 with generators (0,1), (1,r1), (tau,r2)."""

    r1: float
    r2: float
    tau: complex


@dataclass(frozen=True)
class GammaDecomposition:
    m: int
    p: int
    q: int
    residual: tuple[complex, complex]

    @property
    def residual_norm(self) -> float:
        rz, rw = self.residual
        return math.hypot(abs(rz), abs(rw))


def lattice_coords(z, q0: complex, tau: complex):
    """Coordinates (s, t) with z = q0 + s + t*tau; z a scalar or an ndarray."""
    w = (z if isinstance(z, np.ndarray) else complex(z)) - complex(q0)
    t = w.imag / tau.imag
    s = w.real - t * tau.real
    return s, t


def reduce_to_cell(z: complex, q0: complex, tau: complex) -> complex:
    """Representative of z mod the lattice inside {q0 + s + t*tau : 0<=s,t<1}."""
    s, t = lattice_coords(z, q0, tau)
    s -= math.floor(s)
    t -= math.floor(t)
    if s > 1.0 - 1e-12:
        s = 0.0
    if t > 1.0 - 1e-12:
        t = 0.0
    return complex(q0) + s + t * complex(tau)


def _dist_to_cell_boundary(z: complex, q0: complex, tau: complex) -> float:
    corners = [q0, q0 + 1, q0 + 1 + tau, q0 + tau]
    d = math.inf
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        ab = b - a
        u = ((z - a).real * ab.real + (z - a).imag * ab.imag) / abs(ab) ** 2
        u = min(1.0, max(0.0, u))
        d = min(d, abs(z - (a + u * ab)))
    return d


@dataclass(frozen=True)
class NodalCurveSpec:
    """Full problem instance: curve, identified points, base point, cuts, radii.

    p1, p2, z0 and q0 are canonicalized into the fundamental parallelogram
    based at q0 on construction, so all downstream path constructions are
    unambiguous.  delta and eps are the radii of the disks U1 (around p1)
    and U2 (around p2).
    """

    tau: complex
    p1: complex
    p2: complex
    z0: complex
    q0: complex = 0.0 + 0.0j
    delta: float = 0.05
    eps: float = 0.05

    def __post_init__(self):
        tau = complex(self.tau)
        if not all(cmath.isfinite(complex(z)) for z in (tau, self.p1, self.p2, self.z0, self.q0)):
            raise ValueError("tau and the points must be finite")
        if tau.imag <= 0:
            raise ValueError("Im(tau) must be positive")
        if not all(math.isfinite(r) and r > 0 for r in (self.delta, self.eps)):
            raise ValueError("disk radii must be positive and finite")
        q0 = complex(self.q0)
        p1 = reduce_to_cell(complex(self.p1), q0, tau)
        p2 = reduce_to_cell(complex(self.p2), q0, tau)
        z0 = reduce_to_cell(complex(self.z0), q0, tau)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "eps", float(self.eps))
        self._validate()

    def _validate(self):
        if abs(self.p1 - self.p2) < 1e-9:
            raise ValueError("p1 and p2 must differ mod the lattice")
        for name, pt in (("z0", self.z0),):
            if min(abs(pt - self.p1), abs(pt - self.p2)) < 1e-9:
                raise ValueError(f"{name} must avoid the identified points")
        if abs(self.p1 - self.p2) <= self.delta + self.eps:
            raise ValueError("disks around p1 and p2 must be disjoint")
        for pt, r, name in ((self.p1, self.delta, "U1"), (self.p2, self.eps, "U2")):
            if _dist_to_cell_boundary(pt, self.q0, self.tau) <= r:
                raise ValueError(f"disk {name} must not meet the cuts")

    # convenience geometry -------------------------------------------------

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Parallelogram corners (q0, q0+1, q0+1+tau, q0+tau)."""
        return (self.q0, self.q0 + 1, self.q0 + 1 + self.tau, self.q0 + self.tau)

    def point(self, s: float, t: float) -> complex:
        return self.q0 + s + t * self.tau

    def contains(self, z: complex) -> bool:
        """z lies in the closed fundamental cell, up to _CONTAINS_SLACK in lattice coordinates."""
        s, t = lattice_coords(z, self.q0, self.tau)
        slack = _CONTAINS_SLACK
        return -slack <= s <= 1 + slack and -slack <= t <= 1 + slack


def derive_periods(spec: NodalCurveSpec) -> tuple[float, float, float]:
    """Closed-form cut periods (r1, r2) and the dz-coefficient of the
    normalized third-kind differential.

    kappa_coeff = -Im(p1 - p2)/Im(tau) makes both cut periods real:
    r1 = kappa_coeff, r2 = Re(p1 - p2) + kappa_coeff * Re(tau).
    """
    d = spec.p1 - spec.p2
    kappa = -d.imag / spec.tau.imag
    r1 = kappa
    r2 = d.real + kappa * spec.tau.real
    return r1, r2, kappa


def period_group(spec: NodalCurveSpec) -> PeriodGroup:
    r1, r2, _ = derive_periods(spec)
    return PeriodGroup(r1=r1, r2=r2, tau=spec.tau)


def mod_gamma_decompose(v, pg: PeriodGroup) -> GammaDecomposition:
    """Nearest Gamma element of v = (v_z, v_w) and the leftover residual.

    (p, q) solve p + q*tau = v_z as a real 2x2 system; each floor/ceil pair
    is tried with m = round(v_w - p*r1 - q*r2), and the smallest residual
    wins, so a half-integer p or q cannot flip the residual under a last-bit
    change of v.  Emits a warning when the rounding is marginal (entry
    farther than 0.25 from an integer) yet the residual is small, which flags
    a near-degenerate tau.
    """
    vz, vw = complex(v[0]), complex(v[1])
    q_real = vz.imag / pg.tau.imag
    p_real = vz.real - q_real * pg.tau.real
    candidates = []
    for q in (math.floor(q_real), math.ceil(q_real)):
        for p in (math.floor(p_real), math.ceil(p_real)):
            m = round((vw - p * pg.r1 - q * pg.r2).real)
            residual = (vz - p - q * pg.tau, vw - m - p * pg.r1 - q * pg.r2)
            candidates.append(GammaDecomposition(m=int(m), p=int(p), q=int(q), residual=residual))
    dec = min(candidates, key=lambda d: d.residual_norm)
    m_real = (vw - dec.p * pg.r1 - dec.q * pg.r2).real
    off = max(abs(p_real - dec.p), abs(q_real - dec.q), abs(m_real - dec.m))
    if off > 0.25 and dec.residual_norm < 1e-3:
        warnings.warn(
            f"marginal lattice rounding (offset {off:.3f}); tau may be near-degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    return dec


def congruent_mod_gamma(v, w, pg: PeriodGroup, tol: float = 1e-6) -> bool:
    """True iff v - w lies within tol of the period group Gamma."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    diff = (complex(v[0]) - complex(w[0]), complex(v[1]) - complex(w[1]))
    return mod_gamma_decompose(diff, pg).residual_norm < tol


def is_toroidal(r1: float, r2: float) -> bool:
    """Bounded search for a rational relation p*r1 + q*r2 in Z.

    Returns False as soon as some (p, q) != 0 with |p|, |q| <= 50 lands
    within 1e-9 of an integer; True means only that no relation was found up
    to the bound (a diagnostic, not a proof of toroidality).
    """
    bound = _TOROIDAL_BOUND
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if p == 0 and q == 0:
                continue
            x = p * r1 + q * r2
            if abs(x - round(x)) < _TOROIDAL_TOL:
                return False
    return True
