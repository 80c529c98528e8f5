"""Config ingestion, report emission, determinism, exit codes."""

import csv
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nodal_theta.cli import ConfigError, main, parse_config
from nodal_theta.presets import CONFIG_A_TEXT, CONFIG_B_TEXT, config_a, config_b

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# (command, config line replaced as (old, new) or None, extra arguments)
MALFORMED = {
    "grid_negative": ("thm66", ("run.grid = 6", "run.grid = -3"), []),
    "seed_negative": ("thm51", ("run.seed = 20260808", "run.seed = -1"), []),
    "seed_flag_negative": ("thm51", None, ["--seed", "-1"]),
    "samples_negative": ("thm51", ("run.samples = 10", "run.samples = -2"), []),
    "samples_flag_zero": ("thm51", None, ["--samples", "0"]),
    "eps_nan": ("thm51", ("curve.eps = 0.06", "curve.eps = nan"), []),
    "quad_tol_nan": ("thm51", ("tol.quad = 1e-10", "tol.quad = nan"), []),
    "congruence_tol_nan": ("thm51", ("tol.congruence = 1e-6", "tol.congruence = nan"), []),
    "eps_candidate_nan": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.05 nan"), []
    ),
    "eps_candidate_negative": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = -0.05 0.04"), []
    ),
    "congruence_tol_zero": ("thm51", ("tol.congruence = 1e-6", "tol.congruence = 0"), []),
    "eps_candidates_above_eps": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.08 0.07"), []
    ),
    "eps_candidate_at_eps": (
        "thm51", ("curve.eps_candidates = 0.05 0.04 0.03", "curve.eps_candidates = 0.06"), []
    ),
}


@pytest.fixture()
def cfg_a(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text(CONFIG_A_TEXT)
    return p


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

    @pytest.mark.parametrize(
        "name, text, make_spec", [("a", CONFIG_A_TEXT, config_a), ("b", CONFIG_B_TEXT, config_b)]
    )
    def test_demo_config_matches_preset(self, name, text, make_spec):
        path = DEMOS / f"config_{name}.cfg"
        assert path.read_bytes() == text.encode("utf-8")
        assert parse_config(path).spec == make_spec()


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

    def test_thm66_small_run(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["thm66", "--config", str(cfg_a), "--out", str(out), "--samples", "20"]) == 0
        text = (out / "thm66.csv").read_text()
        assert "k_independence" in text
        assert "off_curve_control_corrected" in text
        assert text.splitlines()[-1].startswith("summary,pass")
        # on config A the stated map misses every curve point by an integer:
        # the stated column certifies that, rather than reporting a failed search
        rows = [line.split(",") for line in text.splitlines()[1:]]
        points = [row for row in rows if row[0].isdigit()]
        assert len(points) == 20
        assert all(row[3] == "no_preimage" for row in points)

    def test_zeroset_plot(self, cfg_a, tmp_path):
        out = tmp_path / "out"
        assert main(["zeroset-plot", "--config", str(cfg_a), "--out", str(out)]) == 0
        root = ET.parse(out / "zeroset.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.get("version") == "1.1"
        zeros = [e for e in root.iter() if e.get("class") == "zero-marker"]
        assert len(zeros) == 2

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
        p.write_text(cfg_a.read_text().replace("tol.congruence =", "tol.congruense ="))
        assert main(["identities", "--config", str(p)]) == 2

    def test_repeated_key_exits_2(self, cfg_a, tmp_path):
        p = tmp_path / "twice.cfg"
        p.write_text(cfg_a.read_text() + "tol.congruence = 1e-9\n")
        assert main(["identities", "--config", str(p)]) == 2

    def test_broken_config_exits_2(self, tmp_path):
        p = tmp_path / "broken.cfg"
        p.write_text("curve.tau 0,1\n")
        assert main(["identities", "--config", str(p)]) == 2

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
