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

from nodal_theta.branches import beta_k, select_epsilon, thm66_point
from nodal_theta.cli import main, parse_config
from nodal_theta.inversion import riemann_constants

config = pathlib.Path(__file__).with_name("config_a.cfg")
cfg = parse_config(config)
spec = cfg.spec
eps = select_epsilon(spec, cfg.eps_candidates)
print("selected working radius:", eps)
rc = riemann_constants(spec, eps)
print(f"constants: kappa1 = {rc.kappa1:.8f}, kappa2 = {rc.kappa2:.8f}")

u = (0.25 + 0.15j, 0.4 + 0.1j)
c0 = beta_k(u, spec, eps, k=0)
c1 = beta_k(u, spec, eps, k=1)
print(f"branch inverses at u: sheet 0 -> {c0[1]:.6f}, sheet 1 -> {c1[1]:.6f} (step {c1[1]-c0[1]:.3f})")

print("\nzero-set residuals at curve sample points:")
for s, t in [(0.2, 0.7), (0.8, 0.3), (0.55, 0.85)]:
    P = spec.point(s, t)
    corr, stated = thm66_point(P, spec, eps)
    stated = stated if isinstance(stated, str) else f"{stated:.3e}"
    print(f"   P = {P:.3f}: corrected {corr:.3e} | uncorrected {stated}")

with tempfile.TemporaryDirectory() as tmp:
    main(["zeroset-plot", "--config", str(config), "--out", tmp, "--seed", "7"])
    svg = (pathlib.Path(tmp) / "zeroset.svg").read_text()
    print(f"\nSVG rendering: {len(svg)} bytes, markers:",
          svg.count('class="zero-marker"'), "zeros,", svg.count('class="node-marker"'), "nodes")
