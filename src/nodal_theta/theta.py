"""Classical theta functions with real characteristics and the two-variable
generalized theta function.

Conventions used everywhere in this package:

    e(x)                = exp(2*pi*i*x)
    theta[a;b](z, tau)  = sum_n e( (1/2)(n+a)^2 tau + (n+a)(z+b) ),  Im tau > 0
    Theta(z, w)         = theta[0;0](z) + theta[-r1;r2](z) e(w)

The series is truncated when the Gaussian tail exp(-pi*Im(tau)*(n+a)^2) drops
below the policy tolerance.  Each argument is moved by quasi-periodicity into
the strip |Im z| <= Im(tau)/2, where the Gaussian centre of the terms lies
within 1/2 of n + a = 0, so one cached window per (characteristic, tau,
policy) holds the largest terms of every point and a point's value does not
depend on the rest of its batch.  theta_char_and_dz returns theta and its
z-derivative from one window pass, each equal bit for bit to its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergent

TWO_PI_I = 2j * math.pi

# cap on the strip shift |q|; protects against absurd Im(z)/Im(tau)
_MAX_SHIFT = 100_000


@dataclass(frozen=True)
class ModularParameter:
    """Modular parameter of the underlying lattice; requires Im(tau) > 0."""

    tau: complex

    def __post_init__(self):
        tau = complex(self.tau)
        if not (np.isfinite(tau.real) and np.isfinite(tau.imag)):
            raise ValueError("tau must be finite")
        if tau.imag <= 0.0:
            raise ValueError(f"Im(tau) must be positive, got {tau.imag}")
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class Characteristic:
    """Real characteristic pair [a; b] of a theta series."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("characteristics must be finite")


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control for all theta series.

    abs_tol bounds the omitted tail, max_index bounds the half-width of the
    summation window.
    """

    abs_tol: float = 1e-14
    max_index: int = 64

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError("abs_tol must lie in (0, 1)")
        if self.max_index < 1:
            raise ValueError("max_index must be >= 1")


DEFAULT_POLICY = SeriesPolicy()


def e_func(x):
    """The unit exponential e(x) = exp(2*pi*i*x).  Accepts scalars or arrays."""
    if isinstance(x, np.ndarray):
        return np.exp(TWO_PI_I * x)
    return complex(np.exp(TWO_PI_I * complex(x)))


def _tau_value(tau) -> complex:
    if isinstance(tau, ModularParameter):
        return tau.tau
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValueError(f"Im(tau) must be positive, got {tau.imag}")
    return tau


def _char_ab(char) -> tuple[float, float]:
    if isinstance(char, Characteristic):
        return char.a, char.b
    a, b = char
    return float(a), float(b)


def _halfwidth(a_red: float, im_tau: float, policy: SeriesPolicy) -> int:
    """Minimal N with exp(-pi*Im(tau)*(N - a_red - 1)^2) < abs_tol/4."""
    target = policy.abs_tol / 4.0
    # closed-form candidate, then walk down to the minimal admissible N
    width = math.sqrt(max(0.0, -math.log(target) / (math.pi * im_tau)))
    n = max(1, math.ceil(a_red + 1.0 + width))
    while n > 1:
        w = (n - 1) - a_red - 1.0
        if w > 0.0 and math.exp(-math.pi * im_tau * w * w) < target:
            n -= 1
        else:
            break
    w = n - a_red - 1.0
    if not (w > 0.0 and math.exp(-math.pi * im_tau * w * w) < target):
        # even n = max_index cannot meet the bound for this tau
        n = policy.max_index + 1
    if n > policy.max_index:
        raise NonConvergent(
            f"series needs half-width {n} > max_index {policy.max_index} "
            f"(Im tau = {im_tau:g}, abs_tol = {policy.abs_tol:g})"
        )
    return n


@lru_cache(maxsize=64)
def _window(a: float, b: float, tau: complex, policy: SeriesPolicy, deriv_order: int):
    """(a_red, nk, coeffs) for arguments in the strip: nk = n + a for n in
    [-floor(a) - N - 1, -floor(a) + N + 1], centred on nk = a_red, and the
    read-only tau-only factors coeffs = (2 pi i)^k e(nk^2 tau/2 + nk b)."""
    a_red = a - math.floor(a)
    n_half = _halfwidth(a_red, tau.imag, policy)
    nk = a_red + np.arange(-n_half - 1, n_half + 2, dtype=np.float64)
    coeffs = np.exp(TWO_PI_I * (0.5 * nk * nk * tau + nk * b)) * TWO_PI_I**deriv_order
    nk.flags.writeable = False
    coeffs.flags.writeable = False
    return a_red, nk, coeffs


def _theta_general(char, z, tau, policy: SeriesPolicy, orders: tuple[int, ...]):
    """z = w + q*tau with w in the strip, q = round(Im z / Im tau), and
    theta[a;b](z) = e(-q^2 tau/2 - q(w + b)) theta[a;b](w).  The terms
    e(nk w) come from one exponential per point and a recurrence from the
    window centre, in one row per point that is summed on its own.  One
    pass returns the k-th z-derivative for each k in orders: the rows and
    the prefactor are shared, and each k applies its own window coefficients
    and (nk - q)^k to its own copy of the rows."""
    a, b = _char_ab(char)
    tau = _tau_value(tau)
    policy = policy or DEFAULT_POLICY
    a_red, nk, _ = _window(a, b, tau, policy, orders[0])
    z_arr = np.asarray(z, dtype=np.complex128)
    zf = z_arr.ravel()
    q = np.rint(zf.imag / tau.imag)
    if zf.size and not np.abs(q).max() <= _MAX_SHIFT:
        raise NonConvergent(f"strip shift beyond {_MAX_SHIFT} periods (Im z / Im tau too large)")
    qt = q * tau
    w = zf - qt
    step = np.exp(TWO_PI_I * w)
    mid = len(nk) // 2
    rows = np.empty((zf.size, len(nk)), dtype=np.complex128)
    rows[:, mid] = 1.0
    rows[:, mid + 1:] = step[:, None]
    rows[:, :mid] = (1.0 / step)[:, None]
    np.multiply.accumulate(rows[:, mid:], axis=1, out=rows[:, mid:])
    np.multiply.accumulate(rows[:, mid::-1], axis=1, out=rows[:, mid::-1])
    prefactor = np.exp(TWO_PI_I * ((a_red - q) * w - q * (0.5 * qt + b)))
    out = []
    for i, k in enumerate(orders):
        # the last order takes the rows themselves, so one order needs no copy;
        # in-place products only on whole rows: numpy may round a length-1
        # in-place complex product differently from a longer one
        rk = rows if i == len(orders) - 1 else rows.copy()
        rk *= _window(a, b, tau, policy, k)[2]
        if k:
            rk *= (nk - q[:, None]) ** k
        vals = rk.sum(axis=1) * prefactor
        out.append(complex(vals[0]) if z_arr.ndim == 0 else vals.reshape(z_arr.shape))
    return out


def theta_char(char, z, tau, policy: SeriesPolicy = DEFAULT_POLICY):
    """theta[a;b](z, tau) truncated so the omitted tail is below policy.abs_tol.

    char may be a Characteristic or an (a, b) pair; z may be a scalar or an
    ndarray.  Raises NonConvergent if the tail bound cannot be met within
    policy.max_index terms per side, or if some |Im z| / Im tau exceeds
    100,000.
    """
    return _theta_general(char, z, tau, policy, (0,))[0]


def theta_char_dz(char, z, tau, policy: SeriesPolicy = DEFAULT_POLICY):
    """Termwise z-derivative of theta_char."""
    return _theta_general(char, z, tau, policy, (1,))[0]


def theta_char_and_dz(char, z, tau, policy: SeriesPolicy = DEFAULT_POLICY):
    """(theta_char, theta_char_dz) from one window pass; each equals its own
    call bit for bit.  For callers that need both at the same points."""
    return tuple(_theta_general(char, z, tau, policy, (0, 1)))


def theta_char_dzk(char, z, tau, k: int, policy: SeriesPolicy = DEFAULT_POLICY):
    """k-th termwise z-derivative; used for local expansions near theta zeros."""
    return _theta_general(char, z, tau, policy, (k,))[0]


def translation_factor(char, p: int, q: int, z, tau):
    """Automorphy factor relating theta[a;b](z + p + q*tau) to theta[a;b](z):

        theta[a;b](z + p + q*tau) = e(-q^2 tau/2 - q(z+b) + a p) theta[a;b](z)
    """
    a, b = _char_ab(char)
    tau = _tau_value(tau)
    return e_func(-0.5 * q * q * tau - q * (z + b) + a * p)


def rho0_factor(gen: str, z, tau):
    """Elementary theta factor on the lattice generators: 1 on `one`,
    e(-tau/2 - z) on `tau`."""
    tau = _tau_value(tau)
    if gen == "one":
        return 1.0 + 0.0j if not isinstance(z, np.ndarray) else np.ones_like(z, dtype=np.complex128)
    if gen == "tau":
        return e_func(-0.5 * tau - z)
    raise ValueError(f"gen must be 'one' or 'tau', got {gen!r}")


def psi(p: int, q: int, r1: float, r2: float):
    """Unit character e(p*r1 + q*r2) attached to the real period entries."""
    return e_func(p * r1 + q * r2)


def big_theta(z, w, tau, r1: float, r2: float, policy: SeriesPolicy = DEFAULT_POLICY):
    """Two-variable generalized theta function

        Theta(z, w) = theta[0;0](z, tau) + theta[-r1; r2](z, tau) e(w).

    Quasi-periodic under the rank-3 period group generated by (0,1), (1,r1)
    and (tau, r2).
    """
    return theta_char((0.0, 0.0), z, tau, policy) + theta_char((-r1, r2), z, tau, policy) * e_func(w)
