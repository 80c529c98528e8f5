"""The benchmark's three workloads.

Each workload is a fixed list of ops drawn from the benchmark seed before
any timing.  An op calls the package's public functions exactly as the CLI
suites do for one sample (`thm51`), one curve point (`thm66`) or one heat
map (`zeroset-plot`), and returns a verdict label:

    verified        the op closes by the workload's rule
    skip:<Class>    an exception the CLI suite also catches and reports as a
                    skipped row; expected, counted, not a failure
    open:<guard>    the op completed but does not close; fails the gate
    error:<Class>   any other exception (labelled by the runner); fails the gate

The op count is set by the run length (`--seconds`) and a nominal rate, so
one `--seconds` value always gives the same amount of work; runs are never
cut by a clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nodal_theta import branches, cli, errors, inversion, quadrature

# The package's preset configs, read from the checkout under test.
CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos"

VERIFIED = "verified"
WARMUP_SEED = 0x5EED

# Zero count of T_c that a closing op must report (Theorem 5.1: two zeros).
EXPECTED_ZEROS = 2

# What the CLI suites catch per sample / per point.
THM51_SKIPS = (
    errors.ContourThroughZero,
    errors.ZeroCollision,
    errors.DegenerateC,
    errors.JacobianSingular,
)
THM66_SKIPS = (errors.NewtonDivergence, errors.JacobianSingular)


def _stream(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox stream `stream` of the benchmark seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


@dataclass
class Context:
    """Everything set up before the first op: parsed configs, working radii,
    Riemann constants and precomputed grids."""

    cfgs: list
    eps: list
    kappa: list
    grids: list


class Workload:
    name = ""
    why = ""
    config_files: tuple[str, ...] = ()
    uses_eps = False
    uses_kappa = False
    nominal_ops_per_s = 1.0

    def setup(self) -> Context:
        cfgs = [cli.parse_config(CONFIG_DIR / f) for f in self.config_files]
        eps = [
            branches.select_epsilon(
                cfg.spec, cfg.eps_candidates, rng=np.random.Generator(np.random.Philox(cfg.seed + 1))
            )
            if self.uses_eps
            else None
            for cfg in cfgs
        ]
        kappa = [
            inversion.kappa_vector(inversion.riemann_constants(cfg.spec, e), cfg.spec, "half_tau")
            if self.uses_kappa
            else None
            for cfg, e in zip(cfgs, eps)
        ]
        return Context(cfgs=cfgs, eps=eps, kappa=kappa, grids=[None] * len(cfgs))

    def n_ops(self, seconds: float) -> int:
        """Ops per run, a multiple of the config count so configs alternate evenly."""
        k = len(self.config_files)
        return k * max(1, round(seconds * self.nominal_ops_per_s / k))

    def n_traced(self, seconds: float) -> int:
        """Ops in each traced pass: a traced run makes three passes (one
        untraced, two traced) in about the time of one timed loop."""
        return Workload.n_ops(self, seconds / 3.0)

    def draw(self, ctx: Context, seed: int, n: int) -> list:
        """`n` ops drawn from `seed`."""
        raise NotImplementedError

    def warmup(self, ctx: Context) -> list:
        """One op per config, run untimed so every cache is warm.  They come
        from a fixed stream, so set-up costs the same for every seed."""
        return self.draw(ctx, WARMUP_SEED, len(self.config_files))

    def run(self, ctx: Context, op) -> tuple[str, str | None]:
        """Do one op; return (verdict label, side note or None)."""
        raise NotImplementedError

    def deep_track(self, ctx: Context) -> None:
        """Run after the timed ops, before the peak RSS is read: reach the
        largest transient allocation that only some ops reach, so the peak
        does not follow whether the seed drew one of them."""


class _AlternatingShifts(Workload):
    """Ops are generic shifts c, alternating config A and config B."""

    config_files = ("config_a.cfg", "config_b.cfg")

    def draw(self, ctx, seed, n):
        rngs = [_stream(seed, k) for k in range(len(ctx.cfgs))]
        ops = []
        for i in range(n):
            k = i % len(ctx.cfgs)
            c, _ = inversion.sample_generic_c(ctx.cfgs[k].spec, rngs[k])
            ops.append((k, c))
        return ops


class Thm51Zeros(_AlternatingShifts):
    """The per-sample work of `cmd_thm51`.

    Why: it stresses winding subdivision on small theta batches.
    `locate_zeros` is about 75% of `verify_thm51` under cProfile, with about
    1,160 theta calls of about 33 points each per op.  It also stresses the
    skip path: about one op in five ends in `ZeroCollision` or similar.  It
    runs only a few `H3` quadratures per `c`.
    """

    name = "thm51-zeros"
    why = (
        "winding subdivision on small theta batches: locate_zeros is ~75% of verify_thm51, ~1160 "
        "theta calls of ~33 points per op, plus the ZeroCollision skip path"
    )
    uses_eps = True
    nominal_ops_per_s = 10.0

    def deep_track(self, ctx):
        """Walk one segment through a zero of T_c: `track_log_sampled`
        doubles its samples up to its cap of 16k points and raises
        `ContourThroughZero`.

        About one op in 150 reaches that cap in `locate_zeros`, which lifts
        the peak RSS by about 12 MB, so without this walk the peak would
        follow whether the seed drew such an op."""
        (k, c), = self.draw(ctx, WARMUP_SEED, 1)
        tp = inversion.ThetaPullback(c, ctx.cfgs[k].spec)
        try:
            z, _ = inversion.locate_zeros(tp)
            quadrature.track_log_sampled(tp.value, z - 0.01, z + 0.01)
        except THM51_SKIPS:
            pass

    def run(self, ctx, op):
        k, c = op
        cfg, eps = ctx.cfgs[k], ctx.eps[k]
        spec = cfg.spec
        try:
            res = inversion.verify_thm51(c, spec, eps=eps)
            tp = inversion.ThetaPullback(c, spec)
            # cmd_thm51 writes both edge integrals into its report
            inversion.alpha_dlog_integral(tp)
            inversion.beta_dlog_integral(tp)
        except THM51_SKIPS as exc:
            return "skip:" + type(exc).__name__, None
        if res.n_zeros != EXPECTED_ZEROS:
            return f"open:n_zeros={res.n_zeros}", None
        if not res.corrected_residual_half_tau < cfg.tol_congruence:
            return "open:corrected_residual", None
        return VERIFIED, None


class Thm66Stated(Workload):
    """The per-point work of `cmd_thm66` on config A.

    Why: this is the Newton-over-`H3` path that ROADMAP item 2 targets.  Per
    point it makes about 78 `F_and_slope` evaluations and about 750
    `integrate_segment` calls, and about 96% of its time is under
    `integrate_segment`.  Each evaluation also rebuilds `ThetaPullback` and
    `LaurentData`, and `h1_at_p2` takes about 27% of the time.  On config A
    the stated route ends in `NewtonDivergence`: the expected outcome, not a
    failure.
    """

    name = "thm66-stated"
    why = (
        "the Newton-over-H3 path: ~78 F_and_slope evaluations and ~750 integrate_segment calls per "
        "point, each rebuilding ThetaPullback and LaurentData"
    )
    config_files = ("config_a.cfg",)
    uses_eps = True
    uses_kappa = True
    nominal_ops_per_s = 0.85
    # Enough points that the tail percentile (ten ops beyond it) lies above
    # the median: p58 of 24.
    MIN_OPS = 24
    # The CLI's curve-point box and disk margins.
    BOX = (0.08, 0.92)
    MARGIN = 0.02

    def _admissible(self, spec, P) -> bool:
        return abs(P - spec.p1) > spec.delta + self.MARGIN and abs(P - spec.p2) > spec.eps + self.MARGIN

    def n_ops(self, seconds):
        return max(self.MIN_OPS, round(seconds * self.nominal_ops_per_s))

    def draw(self, ctx, seed, n):
        """One uniform point per stratum of an r x (n / r) grid over the
        CLI's box, r the largest divisor of n up to sqrt(n).

        Op cost varies 3x across the cell, so stratifying keeps each run's
        cost mix the same across seeds.  A stratum's longer side is at least
        0.84 / sqrt(n), longer than a disk margin's diameter (0.16) for
        n <= 27, so no stratum lies wholly inside a margin there.
        """
        spec = ctx.cfgs[0].spec
        rows = max(r for r in range(1, math.isqrt(n) + 1) if n % r == 0)
        s_edges = np.linspace(*self.BOX, rows + 1)
        t_edges = np.linspace(*self.BOX, n // rows + 1)
        rng = _stream(seed, 66)
        ops = []
        for i in range(rows):
            for j in range(n // rows):
                for _ in range(10_000):
                    s = rng.uniform(s_edges[i], s_edges[i + 1])
                    t = rng.uniform(t_edges[j], t_edges[j + 1])
                    P = spec.point(s, t)
                    if self._admissible(spec, P):
                        ops.append(P)
                        break
                else:
                    raise RuntimeError(f"stratum ({i}, {j}) holds no admissible point")
        return ops

    def run(self, ctx, op):
        cfg, eps, kap = ctx.cfgs[0], ctx.eps[0], ctx.kappa[0]
        spec = cfg.spec
        try:
            corr = branches.zero_set_residual(op, spec, eps, _kappa_cache=kap)
        except THM66_SKIPS as exc:
            return "skip:" + type(exc).__name__, None
        # The stated (uncorrected) route: divergence is the expected outcome.
        try:
            branches.zero_set_residual(op, spec, eps, use_correction=False, _kappa_cache=kap)
            stated = "stated:converged"
        except THM66_SKIPS as exc:
            stated = "stated:" + type(exc).__name__
        if not corr < cfg.tol_congruence:
            return "open:corrected_residual", stated
        return VERIFIED, stated


class GridEval(_AlternatingShifts):
    """The `zeroset-plot` heat map at 256x256 instead of 72x72, plus `count_zeros`.

    Why: this is large-batch kernel work: one 65,536-point batch with a
    15-row summation window, and no quadrature or Newton.  Per-point cost and
    memory dominate.  A kernel change that helps the scalar callers of the
    other two workloads can cost here.
    """

    name = "grid-eval"
    why = (
        "large-batch kernel work: a 65,536-point theta batch per op and no quadrature or Newton, "
        "so per-point cost and memory dominate"
    )
    nominal_ops_per_s = 5.0
    N = 256

    def setup(self):
        ctx = super().setup()
        centres = (np.arange(self.N) + 0.5) / self.N
        S, T = np.meshgrid(centres, centres)
        ctx.grids = [cfg.spec.q0 + S + T * cfg.spec.tau for cfg in ctx.cfgs]
        return ctx

    def run(self, ctx, op):
        k, c = op
        spec = ctx.cfgs[k].spec
        # zeroset-plot catches nothing here: any exception is an error.
        tp = inversion.ThetaPullback(c, spec)
        vals = tp.value(ctx.grids[k])
        n = inversion.count_zeros(tp)
        if not np.all(np.isfinite(vals)):
            return "open:non_finite_grid_value", None
        if n != EXPECTED_ZEROS:
            return f"open:n_zeros={n}", None
        return VERIFIED, None


WORKLOADS = {wl.name: wl for wl in (Thm51Zeros(), Thm66Stated(), GridEval())}
