"""The package's public surface, what the CLI runs of it, and what it
imports."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import nodal_theta

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodal_theta"
COMMANDS = ("identities", "periods", "thm51", "thm66", "zeroset-plot")

# Functions the five CLI commands never enter, each kept for a named reader:
# the API that the README documents, the entry point of a demo, or a branch
# that the presets never take.
NOT_RUN_BY_THE_CLI = {
    "abel_jacobi.e_phi2",  # README API
    "abel_jacobi.loop_increment",  # demo 03
    "quadrature._log_change_sampled",  # loop_increment's log walk
    "curve.congruent_mod_gamma",  # README API
    "differentials.ThirdKindDifferential.h_at_p1",  # demo 02
    "differentials.ThirdKindDifferential.h1_at_p2",  # demo 02
    "differentials.ThirdKindDifferential._chart",  # the two methods above
    # ThirdKindDifferential._ell within _ELL_SWITCH of a lattice point, which
    # eta_coeff takes near p1 and p2 (test_differentials.py::TestEtaCoeff),
    # and ThirdKindDifferential._chart, the reader of the two methods above
    "differentials.ThirdKindDifferential._odd_series",
    "inversion.branch_correction",  # demo 04, README finding 1
    # the bisection of a log walk that fails at 256 samples: the cell walk
    # through a zero and a(eps)'s walk past 256 samples, which no preset
    # reaches, test_quadrature.py, and the benchmark's deep track
    "quadrature._bisection",
    "quadrature._raised",
    "quadrature._failing",
}

# Runs the CLI commands in a fresh interpreter, so that no kernel cache
# (theta's windows, quadrature's nodes) filled by an earlier test hides a
# function, and writes "module.qualname" of every function of the package
# entered.  What a spec derives starts cold on each parsed spec anyway.
_TRAFFIC = """
import json, sys
from pathlib import Path

package, cfg, out, record = sys.argv[1:5]
entered = set()

def hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add(Path(code.co_filename).stem + "." + code.co_qualname)

sys.setprofile(hook)
from nodal_theta.cli import main
codes = [main([cmd, "--config", cfg, "--out", out]) for cmd in sys.argv[5:]]
sys.setprofile(None)
Path(record).write_text(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def defined_functions(path: Path) -> set[str]:
    """"module.qualname" of every def in a module, with the qualname that
    Python gives the function's code object."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                names.add(prefix + child.name)
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return names


# A README API bullet: "* `name`, `name` (`nodal_theta.module`): ...".
_API_BULLET = re.compile(r"^\* ((?:`\w+`,?\s+)+)\(`nodal_theta\.(\w+)`\)", re.MULTILINE)


def test_readme_api_names_resolve():
    # every name an API bullet lists is an attribute of the module it names
    bullets = _API_BULLET.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    modules = {module for _, module in bullets}
    assert modules == {"theta", "curve", "differentials", "abel_jacobi", "inversion", "branches"}
    missing = [
        f"{module}.{name}"
        for names, module in bullets
        for name in re.findall(r"`(\w+)`", names)
        if not hasattr(importlib.import_module(f"nodal_theta.{module}"), name)
    ]
    assert not missing, f"named in a README API bullet but not defined: {missing}"


def test_every_export_resolves():
    missing = [name for name in nodal_theta.__all__ if not hasattr(nodal_theta, name)]
    assert not missing
    assert len(set(nodal_theta.__all__)) == len(nodal_theta.__all__)


def test_the_cli_enters_every_function_but_the_named_api(tmp_path):
    record = tmp_path / "entered.json"
    cfg = ROOT / "demos" / "config_a.cfg"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    subprocess.run(
        [sys.executable, "-c", _TRAFFIC, str(PACKAGE), str(cfg), str(tmp_path / "out"), str(record), *COMMANDS],
        check=True,
        env=env,
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
    )
    run = json.loads(record.read_text(encoding="utf-8"))
    assert run["codes"] == [0] * len(COMMANDS)
    defined = set().union(*(defined_functions(p) for p in sorted(PACKAGE.glob("*.py"))))
    entered = set(run["entered"])
    never = sorted(defined - entered - NOT_RUN_BY_THE_CLI)
    assert not never, f"defined in src/nodal_theta but never entered by the CLI: {never}"
    assert NOT_RUN_BY_THE_CLI <= defined
    stale = sorted(NOT_RUN_BY_THE_CLI & entered)
    assert not stale, f"listed in NOT_RUN_BY_THE_CLI but entered by the CLI: {stale}"


# The integrals of the suites in a fresh interpreter: the Riemann constants,
# the alpha period and one thm51 sample on a preset.  Prints the modules of
# numpy.polynomial that the process loaded.
_FOOTPRINT = """
import json, sys
import numpy as np
from nodal_theta import period_integral, riemann_constants, verify_thm51
from nodal_theta.cli import parse_config
from nodal_theta.inversion import sample_generic_c

spec = parse_config(sys.argv[1]).spec
riemann_constants(spec, spec.eps)
period_integral(spec, "alpha")
c, _ = sample_generic_c(spec, np.random.default_rng(1))
verify_thm51(c, spec, spec.eps)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))))
"""

# numpy's polynomial package and its LAPACK bindings, and scipy
_HEAVY_IMPORT = re.compile(r"\b(?:numpy|np)\.(?:polynomial|linalg)\b|\bscipy\b|from numpy import .*\b(?:polynomial|linalg)\b")


def test_the_integrals_load_no_polynomial_package():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(ROOT / "demos" / "config_a.cfg")],
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_no_spec_level_function_has_a_module_cache():
    # what a spec derives is kept on the spec (curve._per_spec): a module
    # cache keyed by the spec's value would be shared by every caller, and
    # its capacity would show in pass counts
    caches = {"lru_cache", "functools.lru_cache", "cache", "functools.cache"}
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            params = node.args.posonlyargs + node.args.args
            for dec in node.decorator_list:
                name = ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
                if params and params[0].arg == "spec" and name in caches:
                    hits.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not hits, hits


def test_the_source_names_no_polynomial_or_lapack_module():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _HEAVY_IMPORT.search(line)
    ]
    assert not hits, hits
