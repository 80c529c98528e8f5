import csv
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from nodal_theta import inversion, theta
from nodal_theta.cli import RunConfig, main, parse_config
from nodal_theta.curve import NodalCurveSpec
from nodal_theta.inversion import THM51_SKIPS, sample_generic_c, verify_thm51

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Generated admissible specs: tau and q0 as (re, im) pairs and the lattice
# coordinates of p1, p2, z0 from q0 (z0 need not lie on the line p1 p2).  A
# property adds its own shift c or c1 and builds the spec with generated_spec.
GENERATED_SPECS = dict(
    tau=st.tuples(st.floats(-0.5, 0.5), st.floats(0.6, 1.4)),
    q0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    coords=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=3, max_size=3),
)


def generated_spec(tau, q0, coords) -> NodalCurveSpec:
    """The spec of one GENERATED_SPECS draw; a draw that is not admissible
    is rejected."""
    tau, q0 = complex(*tau), complex(*q0)
    p1, p2, z0 = (q0 + s + t * tau for s, t in coords)
    try:
        return NodalCurveSpec(tau=tau, p1=p1, p2=p2, z0=z0, q0=q0)
    except ValueError:
        assume(False)


def frac_norm(x: complex) -> float:
    """|x - n| for the integer n nearest to Re x: the distance mod 1."""
    return abs(x - round(x.real))


@pytest.fixture(scope="session")
def presets() -> dict[str, RunConfig]:
    """The shipped presets, read from demos/config_a.cfg and config_b.cfg."""
    return {name: parse_config(DEMOS / f"config_{name}.cfg") for name in ("a", "b")}


@pytest.fixture(scope="session")
def spec_a(presets) -> NodalCurveSpec:
    """Square lattice instance; z0, p2, p1 are collinear with p1 - p2 = 0.31 + 0.17i."""
    return presets["a"].spec


@pytest.fixture(scope="session")
def spec_b(presets) -> NodalCurveSpec:
    """Oblique lattice instance, same collinear placement idea."""
    return presets["b"].spec


@pytest.fixture(scope="session", params=["a", "b"])
def cfg_ab(request, presets) -> RunConfig:
    return presets[request.param]


@pytest.fixture(scope="session")
def spec_ab(cfg_ab) -> NodalCurveSpec:
    return cfg_ab.spec


@pytest.fixture
def preset(spec_ab, spec_a) -> str:
    """Name of the preset that spec_ab stands for: "a" or "b"."""
    return "a" if spec_ab is spec_a else "b"


@pytest.fixture(scope="session")
def cli_rows(tmp_path_factory):
    """cli_rows("thm51", "a"): the rows below the header of a suite's CSV
    report on a shipped preset, at the preset's own seed and sample count,
    from one CLI run per (suite, preset) and session."""

    @functools.cache
    def read(command, preset):
        out = tmp_path_factory.mktemp(f"{command}_{preset}")
        main([command, "--config", str(DEMOS / f"config_{preset}.cfg"), "--out", str(out)])
        with open(out / f"{command}.csv", newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))[1:]

    return read


@pytest.fixture(scope="session")
def thm51_samples():
    """verify_thm51 on generic draws of c until n samples close.  A draw
    raising one of THM51_SKIPS is skipped and counted, as the thm51 suite
    does.  Returns (results, n_skipped)."""

    def draw(spec, n, rng, eps):
        results, skipped = [], 0
        while len(results) < n:
            c, _ = sample_generic_c(spec, rng)
            try:
                results.append(verify_thm51(c, spec, eps=eps))
            except THM51_SKIPS:
                skipped += 1
        return results, skipped

    return draw


class KernelPasses(list):
    """The characteristics of each kernel pass, one tuple per pass, in
    order; `points` holds the point count of each pass beside them."""

    def __init__(self):
        super().__init__()
        self.points = []

    def clear(self):
        super().clear()
        self.points.clear()


@pytest.fixture
def kernel_passes(monkeypatch):
    """The characteristics of every theta kernel pass made while the test
    runs, one tuple per pass, in order, and in `.points` the number of
    points of each.  Every pass goes through theta._theta_pass: theta_chars'
    passes from theta, the fused pass of ThetaPullback.value and
    value_and_dvalue as inversion._theta_pass."""
    calls = KernelPasses()
    kernel = theta._theta_pass

    def counted(chars, z, *args):
        calls.append(chars)
        calls.points.append(np.size(z))
        return kernel(chars, z, *args)

    monkeypatch.setattr(theta, "_theta_pass", counted)
    monkeypatch.setattr(inversion, "_theta_pass", counted)
    return calls
