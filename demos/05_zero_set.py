"""Working radius selection, branch inverses of the inversion map, and the
zero-set picture for curve points, plus the SVG rendering via the CLI.

Two facts shown side by side: inverting the corrected map places every curve
point in the zero set at machine precision (though the corrected criterion
holds identically in the second coordinate, so it cannot separate off-curve
points), while the uncorrected map leaves order-one residuals or, as on
every point below, has no preimage at all.
"""

import pathlib
import tempfile

from nodal_theta.branches import beta_k, select_epsilon, zero_set_residual
from nodal_theta.cli import main, parse_config
from nodal_theta.errors import NewtonDivergence, NoPreimage
from nodal_theta.inversion import kappa_vector, riemann_constants

config = pathlib.Path(__file__).with_name("config_a.cfg")
cfg = parse_config(config)
spec = cfg.spec
eps = select_epsilon(spec, cfg.eps_candidates)
print("selected working radius:", eps)
kap = kappa_vector(riemann_constants(spec, eps), spec, "half_tau")
print(f"constants: kappa1 = {kap[0]:.8f}, kappa2 = {kap[1]:.8f}")

u = (0.25 + 0.15j, 0.4 + 0.1j)
c0 = beta_k(u, spec, eps, k=0, _kappa_cache=kap)
c1 = beta_k(u, spec, eps, k=1, _kappa_cache=kap)
print(f"branch inverses at u: sheet 0 -> {c0[1]:.6f}, sheet 1 -> {c1[1]:.6f} (step {c1[1]-c0[1]:.3f})")

print("\nzero-set residuals at curve sample points:")
for s, t in [(0.2, 0.7), (0.8, 0.3), (0.55, 0.85)]:
    P = spec.point(s, t)
    rc = zero_set_residual(P, spec, eps, _kappa_cache=kap)
    try:
        rl = f"{zero_set_residual(P, spec, eps, use_correction=False, _kappa_cache=kap):.3e}"
    except NoPreimage:
        rl = "no_preimage"
    except NewtonDivergence:
        rl = "diverged"
    print(f"   P = {P:.3f}: corrected {rc:.3e} | uncorrected {rl}")

with tempfile.TemporaryDirectory() as tmp:
    main(["zeroset-plot", "--config", str(config), "--out", tmp, "--seed", "7"])
    svg = (pathlib.Path(tmp) / "zeroset.svg").read_text()
    print(f"\nSVG rendering: {len(svg)} bytes, markers:",
          svg.count('class="zero-marker"'), "zeros,", svg.count('class="node-marker"'), "nodes")
