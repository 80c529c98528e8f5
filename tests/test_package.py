"""The package's public surface, and what the CLI runs of it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nodal_theta

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodal_theta"
COMMANDS = ("identities", "periods", "thm51", "thm66", "zeroset-plot")

# Functions the five CLI commands never enter, each kept for a named reader:
# the API that the README documents, or the entry point of a demo.
NOT_RUN_BY_THE_CLI = {
    "abel_jacobi.e_phi2",  # README API
    "abel_jacobi.loop_increment",  # demo 03
    "quadrature._log_change_sampled",  # loop_increment's log walk
    "curve.congruent_mod_gamma",  # README API
    "differentials.eta_coeff",  # demo 02
    "differentials.h_at_p1",  # demo 02
    "differentials.h1_at_p2",  # demo 02
    "differentials.ThirdKindDifferential.h_at_p1",
    "differentials.ThirdKindDifferential.h1_at_p2",
    "differentials.ThirdKindDifferential._chart",  # the two methods above
    "inversion.d_map",  # README API
    "inversion.d_map_corrected",  # README API
    "inversion.branch_correction",  # demo 04, README finding 1
}

# Runs the CLI commands in a fresh interpreter, so that no lru_cache filled
# by an earlier test hides a function, and writes "module.qualname" of every
# function of the package entered.
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
