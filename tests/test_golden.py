"""Golden-output gate: the five CLI reports of both shipped presets, at each
preset's own seed and sample count, against the copies in tests/golden/.

Cells are compared by kind:
- labels, integers, booleans and empty cells exactly (so a flipped verdict,
  a new skip, a changed zero count or edge integer fails);
- float and complex cells within REL_TOL * max(1, |golden|);
- in zeroset.svg, the element structure and the marker count exactly,
  every coordinate within PX_TOL px, and every colour channel within one of
  the 256 steps of the heat-map shade.

A change that moves an output on purpose regenerates the golden files in the
same change, with

    PYTHONPATH=src python tests/test_golden.py

and names every changed cell class in CHANGES.md.  The bounds are not
widened to absorb a move.
"""

import re
from pathlib import Path

import pytest

from nodal_theta.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PRESETS = ("a", "b")
REPORTS = {
    "identities": "identities.csv",
    "periods": "periods.csv",
    "thm51": "thm51.csv",
    "thm66": "thm66.csv",
    "zeroset-plot": "zeroset.svg",
}
REL_TOL = 1e-12
PX_TOL = 1e-6

_INT = re.compile(r"[+-]?\d+")
_SVG_TOKEN = re.compile(r"#[0-9a-f]{6}|-?\d+(?:\.\d+)?")


def run_commands(preset: str, out: Path) -> dict[str, int]:
    """Exit code of each CLI command on demos/config_<preset>.cfg, reports in out."""
    cfg = ROOT / "demos" / f"config_{preset}.cfg"
    return {cmd: main([cmd, "--config", str(cfg), "--out", str(out)]) for cmd in REPORTS}


def _number(cell: str):
    try:
        return complex(cell)
    except ValueError:
        return None


def csv_mismatches(got: str, want: str) -> list[str]:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return [f"row shapes {[len(r) for r in got_rows]} != {[len(r) for r in want_rows]}"]
    header = want_rows[0]
    bad = []
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        for col, g, w in zip(header, g_row, w_row):
            ref = _number(w)
            if ref is None or _INT.fullmatch(w):
                same = g == w
            else:
                val = _number(g)
                same = val is not None and abs(val - ref) <= REL_TOL * max(1.0, abs(ref))
            if not same:
                bad.append(f"row {i} ({w_row[0]}), {col}: {g!r} != golden {w!r}")
    return bad


def svg_mismatches(got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    n_got, n_want = (sum('class="zero-marker"' in ln for ln in t) for t in (got_lines, want_lines))
    if n_got != n_want:
        return [f"{n_got} zero markers != golden {n_want}"]
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines != golden {len(want_lines)}"]
    bad = []
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if _SVG_TOKEN.sub("?", g) != _SVG_TOKEN.sub("?", w):
            bad.append(f"line {i}: structure {g!r} != golden {w!r}")
            continue
        for tg, tw in zip(_SVG_TOKEN.findall(g), _SVG_TOKEN.findall(w)):
            if tw.startswith("#"):
                chans = [(int(tg[k:k + 2], 16), int(tw[k:k + 2], 16)) for k in (1, 3, 5)]
                same = all(abs(a - b) <= 1 for a, b in chans)
            else:
                same = abs(float(tg) - float(tw)) <= PX_TOL
            if not same:
                bad.append(f"line {i}: {tg} != golden {tw}")
    return bad


@pytest.fixture(scope="module", params=PRESETS)
def reports(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"golden_{request.param}")
    return request.param, out, run_commands(request.param, out)


@pytest.mark.parametrize("command", REPORTS)
def test_report_matches_golden(reports, command):
    preset, out, codes = reports
    assert codes[command] == 0
    name = REPORTS[command]
    got = (out / name).read_text(encoding="utf-8")
    want = (GOLDEN / preset / name).read_text(encoding="utf-8")
    compare = svg_mismatches if name.endswith(".svg") else csv_mismatches
    bad = compare(got, want)
    assert not bad, f"{preset}/{name}: {len(bad)} cells off golden:\n" + "\n".join(bad[:20])


if __name__ == "__main__":
    for preset in PRESETS:
        (GOLDEN / preset).mkdir(parents=True, exist_ok=True)
        print(preset, run_commands(preset, GOLDEN / preset))
