"""Config ingestion, report emission, determinism, exit codes."""

import csv
import dataclasses
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nodal_theta import cli
from nodal_theta.cli import ConfigError, main, parse_config
from nodal_theta.errors import DegenerateC, ZeroCollision
from nodal_theta.inversion import ThetaPullback, locate_zeros, sample_generic_c

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIG_A_TEXT, CONFIG_B_TEXT = ((DEMOS / f"config_{n}.cfg").read_text(encoding="utf-8") for n in "ab")


# (command, config line replaced as (old, new) or None, extra arguments)
MALFORMED = {
    "removed_key_tol_series": ("thm51", ("run.samples = 10", "tol.series = 1e-14\nrun.samples = 10"), []),
    "removed_key_tol_quad": ("thm51", ("run.samples = 10", "tol.quad = 1e-10\nrun.samples = 10"), []),
    "removed_key_tol_congruence": ("thm51", ("run.samples = 10", "tol.congruence = 1e-6\nrun.samples = 10"), []),
    "removed_key_run_grid": ("thm66", ("run.samples = 10", "run.samples = 10\nrun.grid = 6"), []),
    "seed_negative": ("thm51", ("run.seed = 20260808", "run.seed = -1"), []),
    "seed_flag_negative": ("thm51", None, ["--seed", "-1"]),
    "samples_negative": ("thm51", ("run.samples = 10", "run.samples = -2"), []),
    "samples_flag_zero": ("thm51", None, ["--samples", "0"]),
    "eps_nan": ("thm51", ("curve.eps = 0.06", "curve.eps = nan"), []),
    "eps_candidate_nan": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.05 nan"), []
    ),
    "eps_candidate_negative": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = -0.05 0.04"), []
    ),
    "eps_candidates_above_eps": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.08 0.07"), []
    ),
    "eps_candidate_at_eps": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.06"), []
    ),
}


@pytest.fixture()
def cfg_a():
    return DEMOS / "config_a.cfg"


class TestConfigParsing:
    def test_round_trip(self, cfg_a):
        cfg = parse_config(cfg_a)
        assert cfg.spec.tau == 1j
        assert cfg.spec.p1 == pytest.approx(0.76 + 0.52j)
        assert cfg.eps_candidates == (0.05, 0.04, 0.03)
        assert cfg.seed == 20260808
        assert cfg.samples == 10

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# leading comment\n\n" + CONFIG_B_TEXT.replace("run.samples = 10", "run.samples = 3  # tail"))
        cfg = parse_config(p)
        assert cfg.samples == 3

    def test_absent_run_keys_take_the_run_config_defaults(self, tmp_path):
        # the parser passes only the run.* keys present, so a change to a
        # RunConfig field default reaches config files that leave it out
        p = tmp_path / "c.cfg"
        p.write_text("".join(ln for ln in CONFIG_A_TEXT.splitlines(True) if not ln.startswith("run.")))
        cfg = parse_config(p)
        defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig) if f.name in ("samples", "seed", "out_dir")}
        assert len(defaults) == 3
        assert {name: getattr(cfg, name) for name in defaults} == defaults

    def test_missing_key_raises(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("curve.tau = 0,1\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_bad_value_raises(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_A_TEXT.replace("curve.delta = 0.06", "curve.delta = small"))
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_invalid_geometry_raises(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CONFIG_A_TEXT.replace("curve.p1 = 0.76,0.52", "curve.p1 = 0.45,0.35"))
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_readme_config_block_matches_preset(self):
        # the README lists the config keys by example, so it must not drift
        readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
        blocks = readme.split("```\n")[1::2]
        body = CONFIG_A_TEXT.split("\n", 1)[1]
        assert body in blocks


class TestCommands:
    def test_identities_pass(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["identities", "--config", str(cfg_a), "--out", str(out)]) == 0
        lines = (out / "identities.csv").read_text().splitlines()
        assert lines[0] == "test,max_error,pass"
        assert all(row.endswith("true") for row in lines[1:])

    def test_periods_pass(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["periods", "--config", str(cfg_a), "--out", str(out)]) == 0
        text = (out / "periods.csv").read_text()
        assert "period_gamma1" in text and "toroidal_diagnostic_r1_r2" in text

    def test_periods_integrates_each_contour_once(self, cfg_a, tmp_path, monkeypatch):
        # the cut_periods_real row reuses the alpha and beta integrals
        contours, integral = [], cli.period_integral
        monkeypatch.setattr(cli, "period_integral", lambda spec, c: contours.append(c) or integral(spec, c))
        assert main(["periods", "--config", str(cfg_a), "--out", str(tmp_path)]) == 0
        assert contours == ["gamma1", "gamma2", "alpha", "beta"]

    def test_thm51_small_run(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["thm51", "--config", str(cfg_a), "--out", str(out), "--samples", "2"]) == 0
        lines = (out / "thm51.csv").read_text().splitlines()
        assert lines[0].startswith("sample,status,c1,c2,n_zeros")
        assert lines[-1].startswith("summary,pass")

    def test_thm51_rows_as_wide_as_header(self, cfg_a, tmp_path):
        # sample 3 of config A at the default seed is skipped (ZeroCollision),
        # so the run holds an ok row, a skipped row and the summary
        out = tmp_path / "out"
        assert main(["thm51", "--config", str(cfg_a), "--out", str(out), "--samples", "4"]) == 0
        with open(out / "thm51.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert any(row[1].startswith("skipped:") for row in rows[1:])
        assert [len(row) for row in rows] == [len(rows[0])] * len(rows)

    def test_thm66_small_run(self, cli_rows):
        rows = cli_rows("thm66", "a")
        assert [row[0] for row in rows[-3:]] == ["k_independence", "off_curve_control_corrected", "summary"]
        assert rows[-1][1] == "pass"
        # the stated map, read mod (0, 1), has a preimage at every curve
        # point of config A, and its residual is of order one: the column
        # states the stated-form failure as a number.  Rows 0-18 read
        # no_preimage while the map was read with the integer of a log walk,
        # which missed by -1 there.  Row 19 (0.584+0.416j) lies 0.0066
        # below the cut [p1, p2], where that integer was 0, and keeps its
        # residual
        points = rows[:-3]
        assert len(points) == 20
        assert all(float(row[3]) >= 1.0 for row in points[:19])
        assert abs(complex(points[19][1]) - (0.584 + 0.416j)) < 1e-12
        assert abs(float(points[19][3]) - 1.0212534701644509) < 1e-12

    def test_thm66_skips_a_degenerate_point(self, cfg_a, tmp_path, monkeypatch):
        # the first grid point is made to fail the genericity guard, as
        # 0.07+0.69i does just outside the grid box: its row is skipped and
        # counted, and the spot checks run on the next point
        seen = []
        point = cli.thm66_point

        def degenerate_first(P, *args, **kwargs):
            seen.append(P)
            if P == seen[0]:
                raise DegenerateC("theta00(phi1(p1) - c1)")
            return point(P, *args, **kwargs)

        monkeypatch.setattr(cli, "thm66_point", degenerate_first)
        out = tmp_path / "out"
        assert main(["thm66", "--config", str(cfg_a), "--out", str(out), "--samples", "20"]) == 0
        with open(out / "thm66.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "0" and rows[1][2:] == ["skipped:DegenerateC", ""]
        assert sum(row[2].startswith("skipped:") for row in rows[1:]) == 1
        spot = next(row for row in rows if row[0] == "k_independence")
        assert spot[1] == rows[2][1] and spot[3] == "true"
        assert rows[-1][:3] == ["summary", "pass", "skipped=1"]

    def test_zeroset_plot(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["zeroset-plot", "--config", str(cfg_a), "--out", str(out)]) == 0
        root = ET.parse(out / "zeroset.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"
        zeros = [e for e in root.iter() if e.get("class") == "zero-marker"]
        assert len(zeros) == 2

    def test_zeroset_plot_draws_again_after_a_skipped_draw(self, spec_b, tmp_path):
        # the first draw at seed 0 on config B puts a zero inside an excluded
        # disk (ZeroCollision), as a thm51 sample would skip it
        c, _ = sample_generic_c(spec_b, cli._rng(0))
        with pytest.raises(ZeroCollision, match="excluded disk"):
            locate_zeros(ThetaPullback(c, spec_b))
        out = tmp_path / "out"
        assert main(["zeroset-plot", "--config", str(DEMOS / "config_b.cfg"), "--out", str(out), "--seed", "0"]) == 0
        root = ET.parse(out / "zeroset.svg").getroot()
        assert sum(e.get("class") == "zero-marker" for e in root.iter()) == 2

    def test_determinism_fixed_seed(self, cfg_a, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["thm51", "--config", str(cfg_a), "--out", str(out), "--samples", "2"]) == 0
            assert main(["zeroset-plot", "--config", str(cfg_a), "--out", str(out)]) == 0
        assert (out1 / "thm51.csv").read_bytes() == (out2 / "thm51.csv").read_bytes()
        assert (out1 / "zeroset.svg").read_bytes() == (out2 / "zeroset.svg").read_bytes()

    def test_seed_override_changes_rows(self, cfg_a, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["thm51", "--config", str(cfg_a), "--out", str(out1), "--samples", "1"]) == 0
        assert main(["thm51", "--config", str(cfg_a), "--out", str(out2), "--samples", "1", "--seed", "99"]) == 0
        assert (out1 / "thm51.csv").read_bytes() != (out2 / "thm51.csv").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["identities", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_key_exits_2(self, cfg_a, tmp_path):
        p = tmp_path / "typo.cfg"
        p.write_text(cfg_a.read_text().replace("run.seed =", "run.sede ="))
        assert main(["identities", "--config", str(p)]) == 2

    def test_repeated_key_exits_2(self, cfg_a, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text(cfg_a.read_text() + "run.seed = 7\n")
        assert main(["identities", "--config", str(p)]) == 2

    def test_broken_config_exits_2(self, tmp_path):
        p = tmp_path / "broken.cfg"
        p.write_text("curve.tau 0,1\n")
        assert main(["identities", "--config", str(p)]) == 2

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.cfg"
        p.write_bytes(b"curve.tau = 0,1\n# caf\xe9\n")
        assert main(["periods", "--config", str(p)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, edit, extra", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_exits_2(self, cfg_a, tmp_path, capsys, command, edit, extra):
        text = cfg_a.read_text()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        p = tmp_path / "malformed.cfg"
        p.write_text(text)
        assert main([command, "--config", str(p), "--out", str(tmp_path / "out"), *extra]) == 2
        assert "config error:" in capsys.readouterr().err
