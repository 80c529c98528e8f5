"""Acceptance suite: one test per criterion, each printing a verdict line
(run with -s to see them inline; a summary lands in acceptance_report.txt).

acceptance_report.txt is tracked in git, and every run rewrites it in the
working directory.  A change whose run moves the report's numbers commits
the rewritten file with it.

Criteria 4, 5, 6 and 9 carry split verdicts.  The congruence and containment
statements fail in their stated form by a branch-cut term of the
two-component period map; the suite asserts both sides precisely: the stated
forms miss by the analyzed defects (reproduced by two independent routes),
and the corrected forms close at the stated tolerances.  Details sit in the
module docstrings of nodal_theta.inversion and nodal_theta.branches.
"""

import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nodal_theta.abel_jacobi import phi1, phi2
from nodal_theta.branches import beta_k
from nodal_theta.cli import main
from nodal_theta.curve import derive_periods
from nodal_theta.differentials import period_integral
from nodal_theta.errors import ContourThroughZero, DegenerateC
from nodal_theta.inversion import (
    ThetaPullback,
    Thm51Result,
    alpha_dlog_integral,
    beta_dlog_integral,
    branch_correction,
    count_zeros,
    kappa_vector,
    riemann_constants,
    sample_generic_c,
    stated_chart,
)
from nodal_theta.theta import e_func, theta_char, translation_factor
from oracles import (
    branch_correction_tracked,
    h3_zero,
    h3_zero_defect,
    h3_zero_no_derivative,
    jacobian_consistency_check,
    literal_residual,
    mobius_coeffs_four_theta,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"
REPORT: list[str] = []


def verdict(num: int, ok, text: str, preset: str = ""):
    status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    tag = f" [{preset}]" if preset else ""
    line = f"ACCEPTANCE {num:2d}{tag}: {status} - {text}"
    REPORT.append(line)
    print(line)


@pytest.fixture(scope="module", autouse=True)
def write_report():
    yield
    if REPORT:
        with open("acceptance_report.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(REPORT)) + "\n")


def test_criterion_01_theta_identities():
    t0 = time.time()
    worst = 0.0
    for tau in (1j, 0.3 + 0.8j):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, 1.2))
            a, b = rng.uniform(-1.0, 1.0, size=2)
            p, q = (int(v) for v in rng.integers(-3, 4, size=2))
            fac = translation_factor((a, b), p, q, z, tau)
            lhs = theta_char((a, b), z + p + q * tau, tau)
            rhs = fac * theta_char((a, b), z, tau)
            worst = max(worst, abs(lhs - rhs) / max(1e-30, abs(rhs)))
            lhs_p = theta_char((0.0, 0.0), z + 1, tau)
            rhs_p = theta_char((0.0, 0.0), z, tau)
            worst = max(worst, abs(lhs_p - rhs_p) / max(1e-30, abs(rhs_p)))
    odd = max(abs(theta_char((0.5, 0.5), 0.0, tau)) for tau in (1j, 0.3 + 0.8j))
    dt = time.time() - t0
    ok = worst < 1e-10 and odd < 1e-12 and dt < 5.0
    verdict(1, ok, f"theta identities: worst rel err {worst:.2e}, odd value {odd:.2e}, time bound 5s")
    assert ok


def test_criterion_02_period_normalization(spec_a, spec_b):
    t0 = time.time()
    worst = 0.0
    for spec in (spec_a, spec_b):
        r1, r2, _ = derive_periods(spec)
        for contour, target in (("gamma1", 1.0), ("gamma2", -1.0), ("alpha", r1), ("beta", r2)):
            val = period_integral(spec, contour)
            worst = max(worst, abs(val - target), abs(val.imag))
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 10.0
    verdict(2, ok, f"period normalization: worst err {worst:.2e}, time bound 10s")
    assert ok


def test_criterion_03_cut_relations(spec_ab, preset):
    spec = spec_ab
    r1, r2, _ = derive_periods(spec)
    rng = np.random.default_rng(33)
    c, _ = sample_generic_c(spec, rng)
    tp = ThetaPullback(c, spec)
    worst_phi = worst_t = 0.0
    for x in np.linspace(0.025, 0.975, 20):
        P = spec.q0 + x  # on the alpha cut
        worst_phi = max(
            worst_phi,
            abs(phi1(spec, P + spec.tau) - phi1(spec, P) - spec.tau),
            abs(phi2(spec, P + spec.tau) - phi2(spec, P) - r2),
        )
        fac = e_func(-0.5 * spec.tau - (phi1(spec, P) - tp.c1))
        worst_t = max(worst_t, abs(tp.value(P + spec.tau) - fac * tp.value(P)) / max(1e-30, abs(tp.value(P))))
        Q = spec.q0 + 1 + x * spec.tau  # on the beta cut
        worst_phi = max(
            worst_phi,
            abs(phi1(spec, Q - 1) - phi1(spec, Q) + 1.0),
            abs(phi2(spec, Q - 1) - phi2(spec, Q) + r1),
        )
        worst_t = max(worst_t, abs(tp.value(Q - 1) - tp.value(Q)) / max(1e-30, abs(tp.value(Q))))
    ok = worst_phi < 1e-8 and worst_t < 1e-8
    verdict(3, ok, f"cut relations: phi jump err {worst_phi:.2e}, pullback factor err {worst_t:.2e}", preset)
    assert ok


def test_criterion_04_zero_count_and_intermediates(spec_ab, preset):
    spec = spec_ab
    rng = np.random.default_rng(44)
    counts = []
    literal_alpha = 0
    worst_int = 0.0
    n_needed = 20
    while len(counts) < n_needed:
        try:
            c, _ = sample_generic_c(spec, rng)
            tp = ThetaPullback(c, spec)
            counts.append(count_zeros(tp))
        except (ContourThroughZero, DegenerateC):
            continue
        va = alpha_dlog_integral(tp)
        worst_int = max(worst_int, abs(va - round(va.real)))
        if round(va.real) == 0:
            literal_alpha += 1
        vb = beta_dlog_integral(tp)
        want = -0.5 * spec.tau - (phi1(spec, spec.q0) - tp.c1)
        worst_int = max(worst_int, abs((vb - want) - round((vb - want).real)))
    ok_counts = all(n == 2 for n in counts)
    ok_int = worst_int < 1e-8
    ok = ok_counts and ok_int
    verdict(
        4,
        "PASS (integer-exact displays)" if ok else "FAIL",
        f"zero count 2 for {len(counts)} generic c; edge log-integrals match the "
        f"displays to {worst_int:.2e} up to exact integers (literal alpha display "
        f"held for {literal_alpha}/{len(counts)} draws)",
        preset,
    )
    assert ok


def thm51_results(rows) -> list[Thm51Result]:
    """The Thm51Result of each verified sample in the rows of a thm51 report."""
    kinds = (complex,) * 2 + (int,) + (complex,) * 4 + (float,) * 4 + (str, int, int)
    cells = [[kind(cell) for kind, cell in zip(kinds, row[2:])] for row in rows if row[1] == "ok"]
    return [Thm51Result(tuple(v[0:2]), v[2], tuple(v[3:5]), tuple(v[5:7]), *v[7:]) for v in cells]


def test_criterion_05_inversion_congruence(spec_ab, preset, cli_rows):
    t0 = time.time()
    spec = spec_ab
    rows = cli_rows("thm51", preset)
    results = thm51_results(rows)
    skipped = sum(row[1].startswith("skipped:") for row in rows)
    eps_w = float(rows[-1][6].removeprefix("eps="))  # the summary row names the working radius
    lit = [literal_residual(r) for r in results]
    cor = [r.corrected_residual_half_tau for r in results]
    variants = {r.variant_used for r in results}
    # the branch-cut term itself double-checked by the tracked route
    tp = ThetaPullback(results[0].c, spec)
    d2 = stated_chart(spec, tp.c1, eps_w).d2(tp.c2)
    d = branch_correction(spec, eps_w, tp.c2, d2) - branch_correction_tracked(tp, eps_w)
    routes_agree = abs(d - round(d.real)) < 1e-8
    dt = time.time() - t0
    ok_corrected = max(cor) < 1e-6 and variants == {"half_tau"} and routes_agree and dt < 180
    ok_stated = min(lit) < 1e-6  # the uncorrected congruence's expectation
    verdict(
        5,
        "FAIL (as stated) / PASS (branch-corrected)" if ok_corrected and not ok_stated else "FAIL",
        f"divisor congruence over the CLI's {len(results)} samples ({skipped} skipped): "
        f"as stated FAIL (best residual {min(lit):.2e}); with branch-cut term PASS "
        f"(worst {max(cor):.2e}), closing constant -tau/2; time bound 180s",
        preset,
    )
    assert not ok_stated, "stated congruence unexpectedly closed; revisit the analysis"
    assert ok_corrected


def test_criterion_06_laurent_consistency(spec_ab, preset):
    spec = spec_ab
    rng = np.random.default_rng(66)
    c, _ = sample_generic_c(spec, rng)
    tp = ThetaPullback(c, spec)
    eps_w = 0.03

    def h3_direct(t):
        z = spec.p2 + t
        T, dT = tp.value_and_dvalue(z)
        return dT / T + 1.0 / t

    circle = eps_w / 2 * np.exp(2j * np.pi * np.arange(32) / 32)
    oracle = sum(h3_direct(t) for t in circle) / 32  # mean value = h3(0)
    err_corrected = abs(h3_zero(spec, tp.c1, tp.c2) - oracle)
    gap_literal = abs(h3_zero_no_derivative(spec, tp.c1, tp.c2) - oracle)
    defect_match = abs((oracle - h3_zero_no_derivative(spec, tp.c1, tp.c2)) - h3_zero_defect(spec, tp.c1))

    # the Moebius form of h3, from the four-theta chart, against T'/T + 1/t
    # from the pullback's own value and derivative
    rng2 = np.random.default_rng(67)
    worst_recon = 0.0
    ec = e_func(-tp.c2)
    for _ in range(10):
        t = rng2.uniform(0.05, 1.0) * eps_w * np.exp(1j * rng2.uniform(0, 2 * np.pi))
        A, B, C, D = mobius_coeffs_four_theta(spec, tp.c1, t)
        want = h3_direct(t)
        worst_recon = max(worst_recon, abs((A + B * ec) / (C + D * ec) - want) / max(1.0, abs(want)))
    angles = np.exp(2j * np.pi * np.arange(8) / 8)
    dets, scales = [], []
    for rho in (eps_w, 0.5 * eps_w, 0.1 * eps_w):
        A, B, C, D = mobius_coeffs_four_theta(spec, tp.c1, rho * angles)
        dets.append(np.min(np.abs(A * D - B * C)))
        scales.append(np.max(np.abs(A * D) + np.abs(B * C)))
    det_ok = min(dets) > 1e-6 * max(scales)

    ok = err_corrected < 1e-8 and defect_match < 1e-8 and worst_recon < 1e-10 and det_ok
    verdict(
        6,
        "FAIL (literal display) / PASS (corrected form)" if ok and not gap_literal < 1e-8 else "FAIL",
        f"Laurent data: corrected closed form vs limit {err_corrected:.2e} PASS; "
        f"literal display misses by {gap_literal:.2e} (= predicted defect to "
        f"{defect_match:.2e}); Moebius form vs T'/T + 1/t {worst_recon:.2e} (bound 1e-10); "
        f"det bound {'holds' if det_ok else 'fails'}",
        preset,
    )
    assert gap_literal > 1e-3, "literal display unexpectedly exact; revisit the analysis"
    assert ok


def test_criterion_07_periodicity_structure(spec_ab, preset):
    spec = spec_ab
    rng = np.random.default_rng(77)
    worst_int = 0.0
    worst_half = np.inf
    for _ in range(3):
        c, _ = sample_generic_c(spec, rng)
        dm = stated_chart(spec, c[0], 0.03)
        a, b, h = dm.d2(c[1]), dm.d2(c[1] + 1.0), dm.d2(c[1] + 0.5)
        worst_int = max(worst_int, abs(a - b))
        worst_half = min(worst_half, abs(a - h))
    ok = worst_int < 1e-10 and worst_half > 1e-4
    verdict(7, ok, f"d-map periodicity: integer shift {worst_int:.2e}, half shift {worst_half:.2e}", preset)
    assert ok


def test_criterion_08_branch_inversion(spec_ab, preset):
    spec = spec_ab
    eps_w = 0.04
    kap = kappa_vector(riemann_constants(spec, eps_w), spec, "half_tau")
    rng = np.random.default_rng(88)
    worst_rt = 0.0
    for _ in range(3):
        # u = d(c) + kappa has the preimage c by construction: every draw inverts
        c, _ = sample_generic_c(spec, rng)
        dm = stated_chart(spec, c[0], eps_w)
        u = (dm.c1 + kap[0], dm.d2(c[1]) + kap[1])
        c_back = beta_k(u, spec, eps_w, use_correction=False, _kappa_cache=kap)
        d_back = stated_chart(spec, c_back[0], eps_w).d2(c_back[1])
        worst_rt = max(worst_rt, abs(d_back - (u[1] - kap[1])))
    u = (0.25 + 0.15j, 0.4 + 0.1j)
    c0 = beta_k(u, spec, eps_w, k=0, _kappa_cache=kap)
    c1 = beta_k(u, spec, eps_w, k=1, _kappa_cache=kap)
    sheet_err = abs(c1[1] - c0[1] - 1.0)
    rng2 = np.random.default_rng(89)
    c, _ = sample_generic_c(spec, rng2)
    rel = jacobian_consistency_check(spec, c[0], eps_w, c[1])
    ok = worst_rt < 1e-9 and sheet_err < 1e-9 and rel < 1e-6
    verdict(
        8,
        ok,
        f"branch inversion: round trip {worst_rt:.2e}, sheet step err {sheet_err:.2e}, "
        f"Jacobian dual-route rel err {rel:.2e}",
        preset,
    )
    assert ok


def test_criterion_09_zero_set_containment(preset, cli_rows):
    t0 = time.time()
    rows = cli_rows("thm66", preset)
    points = [row for row in rows if row[0].isdigit() and not row[2].startswith("skipped:")]
    corrected = [float(row[2]) for row in points]
    stated = [row[3] for row in points]
    literal = [float(x) for x in stated if x != "no_preimage"]
    spot = {row[0]: float(row[2]) for row in rows if row[0] in ("k_independence", "off_curve_control_corrected")}
    k_gap, off = spot["k_independence"], spot["off_curve_control_corrected"]
    dt = time.time() - t0
    ok_corrected = max(corrected) < 1e-6 and k_gap < 1e-9 and dt < 180
    stated_containment = bool(literal) and min(literal) < 1e-6
    literal_range = f"{min(literal):.2e} to {max(literal):.2e}" if literal else "none"
    off_curve_separates = off > 1e-3
    verdict(
        9,
        "FAIL (as stated) / PASS (corrected, vacuously)"
        if ok_corrected and not stated_containment and not off_curve_separates
        else "FAIL",
        f"zero-set containment at the CLI's {len(points)} points: stated map FAIL (curve residual "
        f"{literal_range} at {len(literal)} of {len(points)} points); "
        f"corrected map PASS (worst {max(corrected):.2e}) "
        f"but vacuously (off-curve control {off:.2e}, not > 1e-3); k-independence "
        f"{k_gap:.2e}; time bound 180s",
        preset,
    )
    assert ok_corrected
    assert not stated_containment, "stated containment unexpectedly holds; revisit"
    assert not off_curve_separates, "corrected containment unexpectedly sharp; revisit"


def test_criterion_10_cli_suite_deterministic(tmp_path):
    t0 = time.time()
    cfg = DEMOS / "config_a.cfg"
    outs = []
    for tag in ("o1", "o2"):
        out = tmp_path / tag
        for cmd in ("identities", "periods"):
            assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["thm51", "--config", str(cfg), "--out", str(out), "--samples", "6"]) == 0
        assert main(["thm66", "--config", str(cfg), "--out", str(out), "--samples", "20"]) == 0
        assert main(["zeroset-plot", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("identities.csv", "periods.csv", "thm51.csv", "thm66.csv", "zeroset.svg")
    )
    root = ET.parse(outs[0] / "zeroset.svg").getroot()
    markers = sum(1 for e in root.iter() if e.get("class") == "zero-marker")
    dt = time.time() - t0
    ok = same and markers == 2 and dt < 360
    verdict(10, ok, f"CLI suite deterministic={same}, zero markers={markers}, two full runs, time bound 360s")
    assert ok
