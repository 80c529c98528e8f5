import pytest

from nodal_theta import theta
from nodal_theta.curve import NodalCurveSpec
from nodal_theta.inversion import THM51_SKIPS, sample_generic_c, verify_thm51


@pytest.fixture(scope="session")
def spec_a() -> NodalCurveSpec:
    """Square lattice instance; z0, p2, p1 are collinear with p1 - p2 = 0.31 + 0.17i."""
    return NodalCurveSpec(
        tau=1j,
        p1=0.76 + 0.52j,
        p2=0.45 + 0.35j,
        z0=0.14 + 0.18j,
        q0=0.0,
        delta=0.06,
        eps=0.06,
    )


@pytest.fixture(scope="session")
def spec_b() -> NodalCurveSpec:
    """Oblique lattice instance, same collinear placement idea."""
    return NodalCurveSpec(
        tau=0.3 + 0.8j,
        p1=0.745 + 0.23j,
        p2=0.535 + 0.36j,
        z0=0.304 + 0.503j,
        q0=0.0,
        delta=0.06,
        eps=0.06,
    )


@pytest.fixture(scope="session", params=["a", "b"])
def spec_ab(request, spec_a, spec_b) -> NodalCurveSpec:
    return spec_a if request.param == "a" else spec_b


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


@pytest.fixture
def kernel_passes(monkeypatch):
    """The characteristics of every theta kernel pass made while the test
    runs, one tuple per pass, in order."""
    calls = []
    kernel = theta._theta_general

    def counted(chars, *args):
        calls.append(chars)
        return kernel(chars, *args)

    monkeypatch.setattr(theta, "_theta_general", counted)
    return calls
