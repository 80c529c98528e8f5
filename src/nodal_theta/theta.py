"""Classical theta functions with characteristics [a;b], a real and b
complex, and the two-variable generalized theta function.

Conventions used everywhere in this package:

    e(x)                = exp(2*pi*i*x)
    theta[a;b](z, tau)  = sum_n e( (1/2)(n+a)^2 tau + (n+a)(z+b) ),  Im tau > 0
    Theta(z, w)         = theta[0;0](z) + theta[-r1;r2](z) e(w)

A complex b reads a theta at a constant shift of its argument,
theta[a; b - s](z) = theta[a;b](z - s).

Each argument is moved by quasi-periodicity into the strip
|Im z| <= Im(tau)/2, and each b to b = beta - m*tau with beta in it, m
joining the strip shift; the Gaussian centre of the terms then lies within
1/2 of n + a = 0, or within 1 for a complex beta.  So one cached window
per (characteristic, tau) holds the largest terms of every point.  The
window is sized by the first term it omits: at the worst such centre,
weighted as in a first derivative, that term is below _ABS_TOL/4 =
2.5e-15 (_halfwidth).  A pass serves derivative orders 0 and 1 only, all
that the generalized theta and its pullback read; the Taylor data of
theta11 come from their own series (differentials).  A point that is not
finite, or whose strip shift exceeds _MAX_SHIFT periods, raises
NonConvergent before any block is summed.

The window's coefficients e(nk^2 tau/2 + nk beta) split into a tau-only
Gaussian e(nk^2 tau/2), cached with nk and the half-width per (a mod 1,
tau, centre) (_gaussian), and a twist e(nk beta) by the shift: a new b,
as each new shift c1 of the pullback makes, costs one small exponential
(_window).  The window's powers are held as a paired table t[j] =
(e(j w), e(-j w)), j = 0..N+1: e(w) and e(-w) are written in place into
row 1, and each further row is one product; the window's cached
coefficients are laid out the same way, with the duplicate centre entry
weighted 0.  The coefficient rows of every window of a pass
form one matrix (_window_set), so a block's row sums of all its windows are
one matrix product with the table: one zgemm per block.  A batch is summed
in blocks of at most _BLOCK points, so memory stays O(points + window *
_BLOCK).  Its points are padded, by repeating the last, to a multiple of
_COLUMNS = 8, and blocks are cut at multiples of 8.  No elementwise step
then runs on a single column, which numpy rounds differently from a longer
array, and the matrix has at least two rows, since numpy sends a one-row
product to gemv.

Bit for bit.  On the zgemm kernels of OpenBLAS 0.3.31's SkylakeX and
Prescott cores (the one that numpy's DYNAMIC_ARCH build picks on an
AVX-512 CPU, and the portable one, which reports itself as Katmai), a
column's result depends neither on the block's size, nor on its position
in the block, nor on the other rows of the matrix, at one thread or more.
On those cores each point's value does not depend on what else is in its
batch, or on the other characteristics and orders of its pass: a value
equals its scalar call bit for bit, which the tests marked bitwise assert
under both cores.  The Haswell and SandyBridge kernels break it in the last
bit (on Haswell a row's result moves with the other rows of the matrix):
there the values keep their error bounds, but not the same bits.

One pass serves every characteristic and derivative order wanted at one
argument: it shares the strip shift, the exponential of the step and one
table sized to the widest window, whose rows a narrower window's
coefficients pad with zeros.  A pass gives each window's row sums and the
block's power table (_row_sums); theta_chars multiplies the sums by the
automorphy prefactors, all from one exponential.  Other combinations of
the same sums apply their prefactors their own way: the pulled-back Theta
(inversion.ThetaPullback) and its node chart (inversion.DMap) fold those
of its four thetas into theta00's,
P_0 = e(-w)^Q C(Q), and builds it once per strip shift Q of a block from
the table's row |Q| and one scalar C(Q); with e(M w), also a row of the
table, a point takes one exponential, the table's e(w).
A derivative is one more order of the same pass: theta_chars((char,), z,
tau, (0, 1)) gives theta and theta' together.  big_theta takes both of its
thetas from one pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NonConvergent

TWO_PI_I = 2j * math.pi

# cap on the strip shift |q|; protects against absurd Im(z)/Im(tau)
_MAX_SHIFT = 100_000
# cap on the half-width of the summation window
_MAX_INDEX = 64
# most points per block of the window pass: its table of powers holds
# 2 * (half-width + 2) * _BLOCK values
_BLOCK = 2048
# a pass's points are padded to a multiple of this many, and its blocks cut
# at multiples of it: OpenBLAS's zgemm then computes a column the same way
# at any position and block size on its SkylakeX and Prescott kernels
# (measured on SkylakeX: a multiple of 4 suffices, a multiple of 2 does not)
_COLUMNS = 8
# bound on the omitted tail of every theta series
_ABS_TOL = 1e-14


def e_func(x):
    """The unit exponential e(x) = exp(2*pi*i*x).  Accepts scalars or arrays."""
    if isinstance(x, np.ndarray):
        return np.exp(TWO_PI_I * x)
    return complex(np.exp(TWO_PI_I * complex(x)))


def _tau_value(tau) -> complex:
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise ValueError(f"Im(tau) must be positive, got {tau.imag}")
    return tau


def _halfwidth(a_red: float, im_tau: float, centre: float) -> int:
    """Minimal N for which the first term the window omits, at |n + a| =
    N + 2 - a_red, is below _ABS_TOL/4 when weighted by 2 pi (N + 3 - a_red)
    as in a first derivative, wherever the Gaussian centre of the terms lies
    within `centre` of n + a = 0:

        2 pi (N + 3 - a) exp(-pi Im(tau) ((N + 2 - a - centre)^2 - centre^2)) < _ABS_TOL/4.

    The bound holds for orders 0 and 1, so a window does not depend on the
    orders of its pass."""
    for n in range(1, _MAX_INDEX + 1):
        v = n + 2.0 - a_red - centre
        weight = 2.0 * math.pi * (n + 3.0 - a_red)
        if v > 0.0 and weight * math.exp(-math.pi * im_tau * (v * v - centre * centre)) < _ABS_TOL / 4.0:
            return n
    raise NonConvergent(f"series needs half-width > {_MAX_INDEX} (Im tau = {im_tau:g}, abs_tol = {_ABS_TOL:g})")


def _reduce(a: float, b: complex, tau: complex):
    """(a_red, beta, m): a_red = a mod 1, and b = beta - m*tau with
    |Im beta| <= Im(tau)/2; theta[a;b] = theta[a_red;b]."""
    a_red = a - math.floor(a)
    m = -round(b.imag / tau.imag)
    return a_red, (b + m * tau if m else b), m


@lru_cache(maxsize=64)
def _gaussian(a_red: float, tau: complex, centre: float):
    """(nk, gauss): the tau-only part of every window of a_red whose
    Gaussian centre lies within `centre` of n + a = 0, as read-only
    (N + 2, 2, 1) tables laid out as the power table of _row_sums:
    nk[j] = (a_red + j, a_red - j) for j = 0..N+1, N = _halfwidth(a_red,
    Im tau, centre), and gauss = e(nk^2 tau/2), whose duplicate centre entry
    gauss[0, 1] is weighted 0.  Every b of the characteristic shares it."""
    n_half = _halfwidth(a_red, tau.imag, centre)
    j = np.arange(n_half + 2, dtype=np.float64)
    nk = np.stack([a_red + j, a_red - j], axis=1)[:, :, None]
    gauss = np.exp(TWO_PI_I * (0.5 * nk * nk * tau))
    gauss[0, 1] = 0.0
    nk.flags.writeable = False
    gauss.flags.writeable = False
    return nk, gauss


@lru_cache(maxsize=64)
def _window(a: float, b: complex, tau: complex):
    """(a_red, beta, m, nk, coeffs), b = beta - m*tau with |Im beta| <=
    Im(tau)/2, for arguments in the strip: the _gaussian of a_red twisted by
    one small exponential, coeffs = gauss e(nk beta), the point-free factors
    e(nk^2 tau/2 + nk beta) as a read-only table.  The Gaussian centre of the
    terms lies within 1/2 of 0 for a real beta and within 1 for a complex
    one, so a new b of the same a_red builds no new Gaussian."""
    a_red, beta, m = _reduce(a, b, tau)
    nk, gauss = _gaussian(a_red, tau, 1.0 if beta.imag else 0.5)
    coeffs = np.exp((TWO_PI_I * beta) * nk)
    coeffs *= gauss
    coeffs.flags.writeable = False
    return a_red, beta, float(m), nk, coeffs


class _WindowSet(NamedTuple):
    """The point-free data of one pass (_window_set)."""

    orders: tuple  # the derivative orders of the pass: (0,), (1,) or (0, 1)
    matrix: np.ndarray  # (rows, 2 * n_rows) coefficients of _row_sums' product
    a_red: np.ndarray  # (W, 1) columns
    beta: np.ndarray
    m: np.ndarray
    n_rows: int  # the widest window's table rows
    max_m: float  # max |m|


@lru_cache(maxsize=64)
def _window_set(chars: tuple, tau: complex, orders: tuple[int, ...]):
    """The _WindowSet of a pass of chars at orders: one coefficient matrix
    with a row coeffs for each _window, followed by its moment-1 row
    coeffs 2 pi i nk when the pass wants order 1, each zero-padded to the
    widest window's 2 (N + 2) table rows.  The matrix has at least two rows:
    numpy sends a one-row product to gemv, which rounds differently."""
    windows = tuple(_window(a, b, tau) for a, b in chars)
    n_rows = max(len(win[3]) for win in windows)
    n_mom = max(orders) + 1
    matrix = np.zeros((max(len(windows) * n_mom, 2), 2 * n_rows), dtype=np.complex128)
    for i, (_, _, _, nk, coeffs) in enumerate(windows):
        row = matrix[i * n_mom, :coeffs.size]
        row[:] = coeffs.ravel()
        if n_mom == 2:
            np.multiply(row, TWO_PI_I * nk.ravel(), out=matrix[i * n_mom + 1, :coeffs.size])
    matrix.flags.writeable = False
    a_red, beta, m = np.array([win[:3] for win in windows]).T[:, :, None]
    return _WindowSet(orders, matrix, a_red.real, beta, m.real, n_rows, max(abs(win[2]) for win in windows))


def _row_sums(z, tau, window_set, out):
    """Writes each window's row sums at the points z = w + q*tau of one block
    into the rows of out, one row per window and order, and returns (w,
    powers, q, lo, hi): w, the (N + 2, 2, points) power table below, whose
    row powers[1, 0] is x = e(w), the strip numbers q and their range
    [lo, hi].  With the strip shifts Q = q - m, the k-th z-derivative of a
    window's theta, k = 0 or 1, is its prefactor e((a_red - Q) w -
    Q (Q tau/2 + beta)) times its sum of order k.

    The powers powers[j] = (e(j w), e(-j w)), j = 0..N+1, fill the table
    from one exponential per point and one product per row, sized to the
    widest window; e(w) and e(-w) are written straight into its row 1.  One
    matrix product of the window set's matrix with the table gives every
    window's moments M_i = sum (2 pi i nk)^i coeffs t: order 0 is M_0 and
    order 1 is M_1 - 2 pi i Q M_0, taken in place for every window at once;
    Q is formed only there.  The product goes straight into out when out
    wants exactly the matrix's rows, as for orders (0, 1) and for (0,) of
    two or more windows; otherwise into a scratch array of the matrix's
    rows, from which the rows out wants are copied."""
    orders, matrix, _, _, m, n_rows, max_m = window_set
    q = np.divide(z.imag, tau.imag)
    np.rint(q, out=q)
    lo, hi = q.min(), q.max()
    if not (hi + max_m <= _MAX_SHIFT and max_m - lo <= _MAX_SHIFT):
        raise NonConvergent(f"strip shift beyond {_MAX_SHIFT} periods (Im z / Im tau too large)")
    w = z - q * tau
    powers = np.empty((n_rows, 2, len(w)), dtype=np.complex128)
    powers[0] = 1.0
    x = powers[1, 0]
    np.multiply(TWO_PI_I, w, out=x)
    np.exp(x, out=x)
    np.divide(1.0, x, out=powers[1, 1])
    for j in range(2, n_rows):
        np.multiply(powers[j - 1], powers[1], out=powers[j])
    sums = out if len(out) == len(matrix) else np.empty((len(matrix), len(w)), dtype=np.complex128)
    np.matmul(matrix, powers.reshape(2 * n_rows, -1), out=sums)
    if orders != (0,):
        sums[1::2] -= TWO_PI_I * (q - m) * sums[::2]
    if sums is not out:
        # orders (1,), or (0,) of one window, whose matrix has a zero second row
        out[:] = sums[1::2] if orders == (1,) else sums[:1]
    return w, powers, q, lo, hi


def _block_pass(z, tau, window_set, out):
    """Each window's values at the points z of one block, in the rows of
    out: its row sums times its prefactor, all prefactors from one
    exponential per point."""
    w, _, q, _, _ = _row_sums(z, tau, window_set, out)
    shift = q - window_set.m
    prefactors = (window_set.a_red - shift) * w - shift * (0.5 * (shift * tau) + window_set.beta)
    np.exp(TWO_PI_I * prefactors, out=prefactors)
    n_orders = len(window_set.orders)
    for i, row in enumerate(out):
        row *= prefactors[i // n_orders]


def _theta_pass(chars, z, tau, orders: tuple[int, ...], n_out: int, block):
    """One window pass of chars at z: (z as an array, an (n_out, points)
    array that block(z_block, tau, window_set, out_block) fills block by
    block).

    z = w + q*tau with w in the strip, q = round(Im z / Im tau), and
    b = beta - m*tau with beta in the strip (_window).  The points are
    padded with copies of the last to a multiple of _COLUMNS, so the array
    may have up to _COLUMNS - 1 more columns than z has points, and split
    evenly into blocks of at most _BLOCK cut at multiples of _COLUMNS, so a
    pass holds O(points + W * _BLOCK) values.  The padding repeats a real
    point, so block meets no value that the points themselves do not give.
    A point's row sums do not depend on its batch: the matrix product of
    _row_sums computes a column the same way wherever it lies in a block of
    a multiple of _COLUMNS columns, and every elementwise step runs on at
    least _COLUMNS columns.  Nor do they depend on the other
    characteristics: a row of the product does not depend on the other
    rows, or on the zeros that pad a narrower window to the widest."""
    tau = _tau_value(tau)
    window_set = _window_set(tuple((float(a), complex(b)) for a, b in chars), tau, orders)
    z_arr = np.asarray(z, dtype=np.complex128)
    zf = z_arr.ravel()
    # both parts of every point finite: a NaN real part reaches no strip check
    if not np.isfinite(zf.view(np.float64)).all():
        raise NonConvergent("a point of the pass is not finite")
    groups = -(-zf.size // _COLUMNS)
    if groups * _COLUMNS > zf.size:
        padded = np.empty(groups * _COLUMNS, dtype=np.complex128)
        padded[:zf.size] = zf
        padded[zf.size:] = zf[-1]
        zf = padded
    vals = np.empty((n_out, zf.size), dtype=np.complex128)
    n_blocks = -(-zf.size // _BLOCK)
    cuts = [i * groups // n_blocks * _COLUMNS for i in range(n_blocks + 1)] if n_blocks else []
    for lo, hi in zip(cuts, cuts[1:]):
        block(zf[lo:hi], tau, window_set, vals[:, lo:hi])
    return z_arr, vals


def theta_char(char, z, tau):
    """theta[a;b](z, tau) truncated so the omitted tail is below 1e-14.

    char is an (a, b) pair, b maybe complex; z a scalar or an ndarray.
    Raises NonConvergent if the tail bound cannot be met within 64 terms
    per side, if a strip shift of z and b exceeds 100,000 periods, or if a
    point is not finite.
    """
    return theta_chars((char,), z, tau)[0][0]


def theta_chars(chars, z, tau, orders: tuple[int, ...] = (0,)):
    """((d^k/dz^k theta[char](z) for k in orders) for char in chars), orders
    (0,), (1,) or (0, 1): every characteristic's values at the same z from
    one window pass (_theta_pass), sharing the strip shift, the step
    exponential and the table of powers.  With Q = q - m, theta[a;b](z) =
    e(-Q^2 tau/2 - Q(w + beta)) theta[a;beta](w).  Each value equals its
    single-characteristic call bit for bit; b may be complex.  Raises
    ValueError for other orders."""
    orders = tuple(orders)
    if orders not in ((0,), (1,), (0, 1)):
        raise ValueError(f"orders must be (0,), (1,) or (0, 1), got {orders}")
    chars = tuple(chars)
    n = len(orders)
    z_arr, vals = _theta_pass(chars, z, tau, orders, len(chars) * n, _block_pass)
    vals = [complex(v[0]) if z_arr.ndim == 0 else v[:z_arr.size].reshape(z_arr.shape) for v in vals]
    return tuple(tuple(vals[i:i + n]) for i in range(0, len(vals), n))


def translation_factor(char, p: int, q: int, z, tau):
    """Automorphy factor relating theta[a;b](z + p + q*tau) to theta[a;b](z):

        theta[a;b](z + p + q*tau) = e(-q^2 tau/2 - q(z+b) + a p) theta[a;b](z)
    """
    a, b = char
    tau = _tau_value(tau)
    return e_func(-0.5 * q * q * tau - q * (z + b) + a * p)


def big_theta(z, w, tau, r1: float, r2: float):
    """Two-variable generalized theta function

        Theta(z, w) = theta[0;0](z, tau) + theta[-r1; r2](z, tau) e(w).

    Quasi-periodic under the rank-3 period group generated by (0,1), (1,r1)
    and (tau, r2).
    """
    (th0,), (thr,) = theta_chars(((0.0, 0.0), (-r1, r2)), z, tau)
    return th0 + thr * e_func(w)
