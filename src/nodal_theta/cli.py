"""Command line front end: config ingestion, verification suites, CSV
reports and an SVG zero-set plot.

    nodal-theta <identities|periods|thm51|thm66|zeroset-plot>
                --config PATH [--out DIR] [--seed N] [--samples N]

Config files are flat `key = value` text (UTF-8, `#` comments); complex
values are written `re,im`, lists are space separated.  Reports are CSV with
a header row and 17-significant-digit floats, so a fixed seed reproduces
identical payload bytes.  The RNG is numpy's Philox counter-based generator
(64-bit, splittable), seeded from run.seed.
Exit codes: 0 all thresholds met, 1 threshold failure, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import ClassVar

import numpy as np

from .abel_jacobi import phi
from .branches import THM66_SKIPS, beta_k, select_epsilon, theta_residual, thm66_point, zero_set_residual
from .curve import NodalCurveSpec, derive_periods, is_toroidal
from .differentials import period_integral
from .errors import DegenerateC, NodalThetaError
from .inversion import _MAX_TRIES, THM51_SKIPS, ThetaPullback, locate_zeros, sample_generic_c, verify_thm51
from .theta import big_theta, e_func, theta_char, theta_chars, translation_factor


class ConfigError(NodalThetaError):
    pass


@dataclasses.dataclass
class RunConfig:
    spec: NodalCurveSpec
    eps_candidates: tuple[float, ...]
    # pass threshold of the corrected congruence residual
    tol_congruence: ClassVar[float] = 1e-6
    samples: int = 10
    seed: int = 20260808
    out_dir: str = "out"

    def __post_init__(self):
        # also runs on dataclasses.replace, so command-line overrides are checked
        for name, value, low in (("samples", self.samples, 1), ("seed", self.seed, 0)):
            if value < low:
                raise ConfigError(f"run.{name} must be at least {low}, got {value}")
        if not all(0 < e < self.spec.eps for e in self.eps_candidates):
            raise ConfigError(
                f"curve.eps_candidates must lie in (0, curve.eps = {self.spec.eps:g}), got {self.eps_candidates}"
            )


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"complex values are written 're,im', got {text!r}")
    return complex(_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_float(text: str) -> float:
    """A finite float; NaN and infinities are malformed values too."""
    try:
        val = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad float {text!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"non-finite float {text!r}")
    return val


_CONFIG_KEYS = frozenset({
    "curve.tau", "curve.p1", "curve.p2", "curve.z0", "curve.q0",
    "curve.delta", "curve.eps", "curve.eps_candidates",
    "run.samples", "run.seed", "run.out_dir",
})


def parse_config(path: str | Path) -> RunConfig:
    """Read the flat key-value config file into a validated RunConfig.

    Unknown and repeated keys are errors, so a misspelt key cannot fall back
    to its default silently."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{ln}: repeated config key {key!r}")
        entries[key] = val

    def need(key: str) -> str:
        if key not in entries:
            raise ConfigError(f"missing config key {key!r}")
        return entries[key]

    def get_float(key: str) -> float:
        text = need(key)
        try:
            return _parse_float(text)
        except ConfigError as exc:
            raise ConfigError(f"{exc} for {key!r}") from exc

    try:
        spec = NodalCurveSpec(
            tau=_parse_complex(need("curve.tau")),
            p1=_parse_complex(need("curve.p1")),
            p2=_parse_complex(need("curve.p2")),
            z0=_parse_complex(need("curve.z0")),
            q0=_parse_complex(entries.get("curve.q0", "0,0")),
            delta=get_float("curve.delta"),
            eps=get_float("curve.eps"),
        )
    except (ValueError, NodalThetaError) as exc:
        raise ConfigError(f"invalid curve data: {exc}") from exc
    cand_text = entries.get("curve.eps_candidates", "")
    try:
        candidates = tuple(_parse_float(tok) for tok in cand_text.split()) if cand_text else (spec.eps / 2,)
    except ConfigError as exc:
        raise ConfigError(f"bad eps candidate list {cand_text!r}: {exc}") from exc
    # only the run.* keys present are passed, so RunConfig owns the defaults
    run = {key[4:]: val for key, val in entries.items() if key.startswith("run.")}
    try:
        run.update({name: int(run[name]) for name in ("samples", "seed") if name in run})
    except ValueError as exc:
        raise ConfigError(f"bad integer in run.* keys: {exc}") from exc
    return RunConfig(spec=spec, eps_candidates=candidates, **run)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, complex):
        return f"{format(x.real, '.17g')}{'+' if x.imag >= 0 else '-'}{format(abs(x.imag), '.17g')}j"
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


# -- suites -------------------------------------------------------------------


def cmd_identities(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.spec
    rng = _rng(cfg.seed)
    rows: list[list] = []

    worst = 0.0
    for tau in (spec.tau, 0.3 + 0.8j if spec.tau == 1j else 1j):
        for _ in range(50):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2))
            a, b = rng.uniform(-1.0, 1.0, size=2)
            p, q = (int(v) for v in rng.integers(-3, 4, size=2))
            fac = translation_factor((a, b), p, q, z, tau)
            lhs = theta_char((a, b), z + p + q * tau, tau)
            rhs = fac * theta_char((a, b), z, tau)
            worst = max(worst, abs(lhs - rhs) / max(1e-30, abs(rhs)))
    rows.append(["quasi_periodicity", worst, worst < 1e-10])

    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        d = abs(theta_char((0.0, 0.0), -z, spec.tau) - theta_char((0.0, 0.0), z, spec.tau))
        worst = max(worst, d)
    rows.append(["evenness", worst, worst < 1e-12])

    odd = abs(theta_char((0.5, 0.5), 0.0, spec.tau))
    rows.append(["odd_characteristic_vanishing", odd, odd < 1e-12])

    r1, r2, _ = derive_periods(spec)
    worst_z1 = worst_zt = worst_w = 0.0
    for _ in range(25):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8))
        w = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8))
        base = big_theta(z, w, spec.tau, r1, r2)
        v1 = big_theta(z + 1, w + r1, spec.tau, r1, r2)
        vt = big_theta(z + spec.tau, w + r2, spec.tau, r1, r2)
        vw = big_theta(z, w + 1, spec.tau, r1, r2)
        worst_z1 = max(worst_z1, abs(v1 - base) / max(1e-30, abs(base)))
        worst_zt = max(worst_zt, abs(vt - e_func(-0.5 * spec.tau - z) * base) / max(1e-30, abs(base)))
        worst_w = max(worst_w, abs(vw - base) / max(1e-30, abs(base)))
    rows.append(["big_theta_shift_1_r1", worst_z1, worst_z1 < 1e-10])
    rows.append(["big_theta_shift_tau_r2", worst_zt, worst_zt < 1e-10])
    rows.append(["big_theta_w_period", worst_w, worst_w < 1e-12])

    # theta' against Cauchy's integral of theta(s)/(s - z)^2 / (2 pi i) on
    # |s - z| = 0.1, by the trapezoid rule at 32 nodes: the mean of
    # theta(z + r)/r over the nodes r.  It converges geometrically and, unlike
    # a difference quotient, does not amplify the last bit of theta
    worst = 0.0
    ring = 0.1 * np.exp(2j * np.pi * np.arange(32) / 32)
    for _ in range(10):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8))
        cauchy = complex(np.mean(theta_char((0.3, -0.2), z + ring, spec.tau) / ring))
        ((an,),) = theta_chars(((0.3, -0.2),), z, spec.tau, (1,))
        worst = max(worst, abs(an - cauchy) / max(1.0, abs(an)))
    rows.append(["derivative_vs_cauchy_integral", worst, worst < 1e-12])

    write_csv(out_dir / "identities.csv", ["test", "max_error", "pass"], rows)
    return all(r[2] for r in rows)


def cmd_periods(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.spec
    r1, r2, _ = derive_periods(spec)
    rows: list[list] = []
    targets = {"gamma1": 1.0, "gamma2": -1.0, "alpha": r1, "beta": r2}
    ok = True
    vals = {contour: period_integral(spec, contour) for contour in targets}
    for contour, target in targets.items():
        err = abs(vals[contour] - target)
        rows.append([f"period_{contour}", vals[contour].real, vals[contour].imag, target, err, err < 1e-8])
        ok &= err < 1e-8
    rows.append(["cut_periods_real", abs(vals["alpha"].imag), abs(vals["beta"].imag), 0.0, 0.0, True])
    flag = is_toroidal(r1, r2)
    rows.append(["toroidal_diagnostic_r1_r2", r1, r2, 0.0, 0.0, flag])
    control = is_toroidal(0.0, 0.3)
    rows.append(["toroidal_control_rational", 0.0, 0.3, 0.0, 0.0, not control])
    ok &= not control
    write_csv(out_dir / "periods.csv", ["test", "a", "b", "target", "error", "pass"], rows)
    return ok


def cmd_thm51(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.spec
    n_samples = cfg.samples
    rng = _rng(cfg.seed)
    eps_w = select_epsilon(spec, cfg.eps_candidates, rng=_rng(cfg.seed + 1))

    rows: list[list] = []
    resampled = 0
    for idx in range(n_samples):
        c, rej = sample_generic_c(spec, rng)
        resampled += rej
        try:
            res = verify_thm51(c, spec, eps=eps_w)
        except THM51_SKIPS as exc:
            rows.append([idx, "skipped:" + type(exc).__name__] + [""] * 14)
            continue
        rows.append([
            idx, "ok", *res.c, res.n_zeros, *res.zeros, *res.w,
            res.residual_half_tau, res.residual_full_tau,
            res.corrected_residual_half_tau, res.corrected_residual_full_tau,
            res.variant_used, res.alpha_dlog_winding, res.beta_dlog_offset,
        ])
    done = [r for r in rows if r[1] == "ok"]
    # columns 4 and 11: the zero count and the corrected -tau/2 residual
    summary_ok = bool(done) and all(r[4] == 2 and r[11] < cfg.tol_congruence for r in done)
    rows.append([
        "summary", "pass" if summary_ok else "fail", "closing_variant=half_tau+branch_correction",
        f"samples={len(done)}", f"skipped={n_samples - len(done)}", f"resampled={resampled}",
        f"eps={_fmt(eps_w)}", "", "", *(max((r[col] for r in done), default=0.0) for col in range(9, 13)),
        "", "", "",
    ])
    header = [
        "sample", "status", "c1", "c2", "n_zeros", "q1", "q2", "w1", "w2",
        "residual_stated_half_tau", "residual_stated_full_tau",
        "residual_corrected_half_tau", "residual_corrected_full_tau",
        "closing_variant", "alpha_dlog_winding", "beta_dlog_offset",
    ]
    write_csv(out_dir / "thm51.csv", header, rows)
    return summary_ok


# side of the first curve-point grid of thm66; grown until it holds enough points
_THM66_GRID = 6


def cmd_thm66(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.spec
    n_target = max(20, cfg.samples)
    eps_w = select_epsilon(spec, cfg.eps_candidates, rng=_rng(cfg.seed + 1))

    pts: list[complex] = []
    n_grid = _THM66_GRID
    while len(pts) < n_target:
        pts.clear()
        for s in np.linspace(0.08, 0.92, n_grid):
            for t in np.linspace(0.08, 0.92, n_grid):
                P = spec.point(s, t)
                if abs(P - spec.p1) > spec.delta + 0.02 and abs(P - spec.p2) > spec.eps + 0.02:
                    pts.append(P)
        n_grid += 1
    pts = pts[:n_target]

    rows: list[list] = []
    done: list[tuple[complex, float]] = []
    for idx, P in enumerate(pts):
        try:
            corr, stated = thm66_point(P, spec, eps_w)
        except THM66_SKIPS as exc:
            rows.append([idx, P, "skipped:" + type(exc).__name__, ""])
            continue
        done.append((P, corr))
        rows.append([idx, P, corr, stated])
    if not done:
        raise DegenerateC(f"every one of the {len(pts)} curve points is skipped")

    # spot checks on the first point not skipped: sheet independence and the
    # off-curve control
    P0, r0 = done[0]
    r1_ = zero_set_residual(P0, spec, eps_w, k=1)
    rows.append(["k_independence", P0, abs(r0 - r1_), abs(r0 - r1_) < 1e-9])
    u = phi(spec, P0)
    u_off = (u[0], u[1] + 0.37 + 0.21j)
    off = theta_residual(u_off, beta_k(u_off, spec, eps_w), spec)
    # the corrected containment holds identically, so the control cannot
    # separate: reported, not asserted
    rows.append(["off_curve_control_corrected", u_off[1], off, "vacuous_identity"])

    ok = all(corr < cfg.tol_congruence for _, corr in done) and abs(r0 - r1_) < 1e-9
    rows.append(["summary", "pass" if ok else "fail", f"skipped={len(pts) - len(done)}", f"eps={_fmt(eps_w)}"])
    write_csv(out_dir / "thm66.csv", ["point", "value", "residual_corrected", "residual_stated"], rows)
    return ok


def _shade(v: float, lo: float, hi: float) -> str:
    x = 0.0 if hi <= lo else (v - lo) / (hi - lo)
    g = int(round(255 * min(1.0, max(0.0, x))))
    return f"#{g:02x}{g:02x}{255 - g:02x}"


def cmd_zeroset_plot(cfg: RunConfig, out_dir: Path) -> bool:
    spec = cfg.spec
    rng = _rng(cfg.seed)
    # a draw that a thm51 sample would skip is drawn again from the same rng
    for _ in range(_MAX_TRIES):
        c, _ = sample_generic_c(spec, rng)
        try:
            tp = ThetaPullback(c, spec)
            zeros = locate_zeros(tp)
            break
        except THM51_SKIPS as exc:
            skip = exc
    else:
        raise skip

    n = 72
    ss = (np.arange(n) + 0.5) / n
    tt = (np.arange(n) + 0.5) / n
    S, T = np.meshgrid(ss, tt)
    Z = spec.q0 + S + T * spec.tau
    vals = np.log10(np.abs(tp.value(Z)) + 1e-300)
    lo, hi = float(np.percentile(vals, 2)), float(np.percentile(vals, 98))

    width = height = 640.0
    corners = spec.corners
    xs = [z.real for z in corners]
    ys = [z.imag for z in corners]
    x0, x1 = min(xs) - 0.05, max(xs) + 0.05
    y0, y1 = min(ys) - 0.05, max(ys) + 0.05

    def to_px(z: complex) -> tuple[float, float]:
        return (
            (z.real - x0) / (x1 - x0) * width,
            height - (z.imag - y0) / (y1 - y0) * height,
        )

    cell_w = width / (x1 - x0) / n * 1.02
    cell_h = height / (y1 - y0) / n * abs(spec.tau.imag) * 1.02
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.0f}" height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        "<g>",
    ]
    for i in range(n):
        for j in range(n):
            px, py = to_px(complex(Z[i, j]))
            color = _shade(float(vals[i, j]), lo, hi)
            parts.append(
                f'<rect x="{px - cell_w / 2:.2f}" y="{py - cell_h / 2:.2f}" '
                f'width="{cell_w:.2f}" height="{cell_h:.2f}" fill="{color}"/>'
            )
    parts.append("</g>")
    pts = " ".join(f"{to_px(z)[0]:.2f},{to_px(z)[1]:.2f}" for z in corners)
    parts.append(f'<polygon points="{pts}" fill="none" stroke="#000000" stroke-width="1.5"/>')
    for tag, z, color in (("node-marker", spec.p1, "#007700"), ("node-marker", spec.p2, "#770000")):
        px, py = to_px(z)
        parts.append(
            f'<circle class="{tag}" cx="{px:.2f}" cy="{py:.2f}" r="5" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    for z in zeros:
        px, py = to_px(z)
        parts.append(
            f'<circle class="zero-marker" cx="{px:.2f}" cy="{py:.2f}" r="6" fill="#ff8800" stroke="#000000" stroke-width="1"/>'
        )
    parts.append("</svg>")
    (out_dir / "zeroset.svg").write_text("\n".join(parts) + "\n", encoding="utf-8")
    return True


COMMANDS = {
    "identities": cmd_identities,
    "periods": cmd_periods,
    "thm51": cmd_thm51,
    "thm66": cmd_thm66,
    "zeroset-plot": cmd_zeroset_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nodal-theta", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        overrides = {"seed": args.seed, "samples": args.samples}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2

    try:
        ok = COMMANDS[args.command](cfg, out_dir)
    except NodalThetaError as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {'pass' if ok else 'fail'} (reports in {out_dir})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
