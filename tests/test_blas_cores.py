"""The bit-for-bit contract on each OpenBLAS core that it is stated for.

The tests marked `bitwise` assert with `==` that a value does not depend on
its batch, its block, the other characteristics or orders of its pass, or
the number of BLAS threads.  Those bits rest on the zgemm kernel that
numpy's OpenBLAS (built DYNAMIC_ARCH) picks at run time: the contract is
stated for the SkylakeX and Prescott kernels (theta module docstring), and
it does not hold on Haswell or SandyBridge.  This test reruns the bitwise
tests in a fresh interpreter under each in-scope OPENBLAS_CORETYPE that the
CPU runs, as read from OpenBLAS's own `Core:` line, and skips, naming it,
the core that this run already uses and any core that the CPU does not run.
The rerun uses plain asserts: rewriting them costs about a second of
start-up, and a failing core is diagnosed by running the suite under it.
"""

import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# OPENBLAS_CORETYPE -> the core that OPENBLAS_VERBOSE=2 then names
IN_SCOPE = {"SkylakeX": "SkylakeX", "Prescott": "Katmai"}
# the test modules that hold bitwise tests
MODULES = (
    "test_theta.py",
    "test_inversion.py",
    "test_abel_jacobi.py",
    "test_differentials.py",
    "test_quadrature.py",
    "test_branches.py",
)


@lru_cache(maxsize=None)
def running_core(coretype: str | None = None) -> str | None:
    """The core that OpenBLAS runs under OPENBLAS_CORETYPE=coretype, or under
    this run's own environment when coretype is None."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2")
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, timeout=60)
    found = re.search(r"^Core: (\S+)", run.stdout + run.stderr, re.MULTILINE)
    return found.group(1) if found else None


@pytest.mark.parametrize("coretype", IN_SCOPE)
def test_bitwise_tests_pass_on_the_core(coretype):
    core = IN_SCOPE[coretype]
    if running_core() == core:
        pytest.skip(f"this run's own bitwise tests run on {coretype} ({core})")
    if running_core(coretype) != core:
        pytest.skip(f"the CPU does not run the OpenBLAS core {coretype}")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--assert=plain", "-m", "bitwise", *(f"tests/{m}" for m in MODULES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, f"bitwise tests under {coretype}:\n{run.stdout[-4000:]}{run.stderr[-2000:]}"
    assert re.search(r"\d+ passed", run.stdout)
