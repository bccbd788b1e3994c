"""End-to-end acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test prints ``criterion NN <label>: PASS|FAIL`` before asserting, so the
verdict line survives in the captured output either way.
"""

import json
import math

import numpy as np
import pytest

from edgecurrents import (ModelParams, apply_dirac_fd, as_gamma, boost_invariance_scan,
                          bulk_mode, conjugate_pair, defect_mode, edge_conductivity,
                          edge_mode_at_k, eval_bulk, eval_defect, eval_edge, make_system,
                          oracle_branch_cut_integral, oracle_bulk_current, oracle_edge_current,
                          residuals, richardson_residual, singular_part, solve_system,
                          total_decomposition)
from edgecurrents.cli import main as cli_main
from conftest import random_gamma
from derivation import partial_fraction_sides, rapidity_forms_agree


def verdict(n, label, ok):
    print(f"criterion {n:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n:02d} {label} failed"


def grid_residual(grid, E, p, h):
    res = apply_dirac_fd(grid, p, h) - E * grid
    res = res[1:-1, 1:-1]
    ref = grid[1:-1, 1:-1]
    return float(np.linalg.norm(res) / np.linalg.norm(ref))


def test_criterion_01_edge_conductivity_table():
    ok = True
    for m in (1.0, -1.0):
        for g in (-10.0, -2.0, -0.5, 0.5, 2.0, 10.0):
            sigma = edge_conductivity(ModelParams(m, as_gamma(g)))
            expected = (1 if m > 0 else -1) if m * g > 0 else 0
            ok = ok and sigma == expected
    verdict(1, "edge conductivity table", ok)


def test_criterion_02_eigenfunction_residual_order():
    rng = np.random.default_rng(11)
    hs = (1e-2, 5e-3, 2.5e-3)
    side = 0.32
    ok = True
    for _ in range(50):  # bulk modes
        m = float(rng.uniform(0.0, 2.0))
        g = random_gamma(rng, hi=5.0)
        p = ModelParams(m, as_gamma(g))
        mode = bulk_mode(p, float(rng.uniform(0.3, 2.0)), float(rng.uniform(-2, 2)))
        rs = []
        for h in hs:
            pts = round(side / h) + 1
            xs = h * np.arange(pts)
            grid = eval_bulk(mode, p, xs[:, None], xs[None, :])
            rs.append(grid_residual(grid, mode.E, p, h))
        order = float(np.polyfit(np.log(hs), np.log(rs), 1)[0])
        ok = ok and order >= 1.9
        bc = grid[0, :, 1] - 1j * g * grid[0, :, 0]
        ok = ok and float(np.max(np.abs(bc))) < 1e-12
    count = 0
    while count < 50:  # edge modes
        m = float(rng.uniform(0.1, 2.0))
        g = random_gamma(rng, hi=5.0)
        p = ModelParams(m, as_gamma(g))
        mode = edge_mode_at_k(p, float(rng.uniform(-3, 3)))
        if mode is None or mode.lam > 10.0:
            continue
        count += 1
        rs = []
        for h in hs:
            pts = round(side / h) + 1
            xs = h * np.arange(pts)
            grid = eval_edge(mode, p, xs[:, None], xs[None, :])
            rs.append(grid_residual(grid, mode.E, p, h))
        order = float(np.polyfit(np.log(hs), np.log(rs), 1)[0])
        ok = ok and order >= 1.9
        bc = grid[0, :, 1] - 1j * g * grid[0, :, 0]
        ok = ok and float(np.max(np.abs(bc))) < 1e-12
    verdict(2, "eigenfunction FD residuals O(h^2), boundary condition", ok)


def test_criterion_03_defect_modes():
    p = ModelParams(1.0, as_gamma(2.0))
    ok = True
    for mu in (1.0, 10.0, 100.0):
        for sign in (+1, -1):
            mode = defect_mode(p, mu, 0.5, sign)
            h = 5.0 / mode.lambda_def / 512
            fn = lambda x, y: eval_defect(mode, x, y)
            r = richardson_residual(fn, sign * 1j * mu, p, 0.0, 0.0, 513, 9, h)
            ok = ok and r < 1e-8
    mus = np.array([10.0, 100.0, 1000.0])
    for sign, target in ((+1, 1.0), (-1, -1.0)):
        devs = [abs(defect_mode(p, mu, 0.5, sign).s - target) for mu in mus]
        slope = float(np.polyfit(np.log(mus), np.log(devs), 1)[0])
        ok = ok and abs(slope + 1.0) < 0.2
    verdict(3, "defect modes +-i mu, large-mu spinor O(1/mu)", ok)


def test_criterion_04_edge_closed_form_vs_quadrature():
    ok = True
    checked = 0
    for g in (2.0, -2.0, 3.0, -3.0, 0.5, -0.5):
        for x in (0.2, 0.9, 1.7, 3.0):
            p = ModelParams(1.0, as_gamma(g))
            closed = total_decomposition(p).edge_smooth(x)
            numeric = oracle_edge_current(p, x)
            if closed == 0.0:
                ok = ok and abs(numeric) < 1e-12
            else:
                ok = ok and abs(numeric - closed) / abs(closed) < 1e-8
            checked += 1
    ok = ok and checked >= 20
    verdict(4, "edge closed form vs decay-rate quadrature", ok)


def test_criterion_05_partial_fraction_identity():
    rng = np.random.default_rng(5)
    ok = True
    for i in range(1000):
        if i % 50 == 0:
            gamma = as_gamma("inf") if i % 100 == 0 else as_gamma(0.0)
        else:
            gamma = as_gamma(random_gamma(rng, hi=10.0))
        p = ModelParams(float(rng.uniform(0.0, 2.0)), gamma)
        l = float(rng.uniform(0.2, 3.0))
        v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        lhs, rhs = map(complex, partial_fraction_sides(p, l, v))
        ok = ok and abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    verdict(5, "partial-fraction identity at 10^3 samples", ok)


def test_criterion_06_branch_cut_integral():
    ok = True
    for m in (0.5, 1.0, 2.0):
        for x in (*np.geomspace(0.05, 5.0, 11), 1.0):  # geometric grid plus the old x = 1
            res = oracle_branch_cut_integral(m, float(x))
            ok = ok and res.rel_diff < 1e-8
    verdict(6, "branch-cut integral, Abel limit vs contour (1e-8)", ok)


def test_criterion_07_bulk_pipeline_vs_closed_form():
    ok = True
    for m, g in ((1.0, 2.0), (1.0, 3.0), (1.0, -2.0), (1.0, -3.0), (1.0, 0.5), (1.0, -1.05),
                 (0.0, 2.0)):
        p = ModelParams(m, as_gamma(g))
        dec = total_decomposition(p)
        for x in (*np.geomspace(0.05, 5.0, 11), 0.7, 1.0):  # geometric grid plus the old points
            closed = dec.bulk_smooth(float(x))
            numeric = oracle_bulk_current(p, float(x))
            ok = ok and abs(numeric - closed) / abs(closed) < 1e-8
    # the (1, -2) profile also equals minus its reflection-dual profile at m < 0
    dual_dec = total_decomposition(ModelParams(-1.0, as_gamma(0.5)))
    closed = total_decomposition(ModelParams(1.0, as_gamma(-2.0))).bulk_smooth(1.0)
    ok = ok and abs(-dual_dec.bulk_smooth(1.0) - closed) < 1e-14 * abs(closed) + 1e-16
    verdict(7, "bulk closed form vs full numeric pipeline (1e-8)", ok)


def test_criterion_08_tail_cancellation():
    p = ModelParams(1.0, as_gamma(2.0))
    dec = total_decomposition(p)
    c = 2.0 / (2.0 * math.pi * 3.0)  # gamma/(2 pi (gamma^2-1))
    xs = np.linspace(5.0, 50.0, 91)
    scaled = np.array([abs(dec.total_smooth(float(x))) * x * x for x in xs])
    # decays toward zero (nonincreasing up to float underflow of the tail)
    ok = bool(np.all(np.diff(scaled) <= 1e-15))
    ok = ok and float(np.max(scaled[xs >= 20.0])) < 1e-6 and scaled[-1] < 1e-12
    # each term separately keeps a 1/x^2 tail of opposite constants -+c
    ok = ok and abs(dec.bulk_smooth(50.0) * 2500.0 + c) < 1e-6
    ok = ok and abs(dec.edge_smooth(50.0) * 2500.0 - c) < 1e-6
    verdict(8, "bulk/edge 1/x^2 tail cancellation", ok)


def test_criterion_09_massless_regular_part_vanishes():
    ok = True
    xs = np.geomspace(0.05, 5.0, 40)
    for g in (2.0, -2.0, 0.5, -0.5, 3.0, 1.3, 0.7, -5.0, 1e16, 0.0, "inf"):
        dec = total_decomposition(ModelParams(0.0, as_gamma(g)))
        for x in xs:
            v = dec.regular(float(x))
            ok = ok and v == 0.0 and math.copysign(1.0, v) == 1.0
    verdict(9, "m = 0 regular part identically zero", ok)


def test_criterion_10_singular_part_covariance():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(50):
        g = random_gamma(rng)
        s = singular_part(ModelParams(1.0, as_gamma(g)))
        sd = singular_part(ModelParams(1.0, as_gamma(-1.0 / g)))
        ok = ok and abs(sd.c_log_delta_prime + s.c_log_delta_prime) < 1e-12
        ok = ok and abs(sd.c_delta_prime + s.c_delta_prime) < 1e-12
        ok = ok and abs(sd.c_inv_x2 + s.c_inv_x2) < 1e-12
    verdict(10, "singular part odd under gamma -> -1/gamma", ok)


def test_criterion_11_multifermion_constraints():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(50):  # charge-conjugate pairs cancel everything
        rep = residuals(conjugate_pair(random_gamma(rng)))
        ok = ok and abs(rep.r_log) < 1e-12 and abs(rep.r_x2) < 1e-12 and abs(rep.r_dipole) < 1e-12
    sols = solve_system(2, [2.0])  # solver recovers the partner of gamma = 2
    ok = ok and any(any(not g.is_infinite and abs(g.value + 0.5) < 1e-10 for g in s.gammas)
                    for s in sols)
    for _ in range(200):  # gamma-form and rapidity-form zero sets coincide
        sys = make_system([random_gamma(rng) for _ in range(2 + int(rng.integers(3)))])
        ok = ok and rapidity_forms_agree(sys)
    for _ in range(50):  # also with species of zero edge velocity, gamma = 0 and inf
        extra = ([0.0], ["inf"], [0.0, "inf"])[int(rng.integers(3))]
        sys = make_system([random_gamma(rng) for _ in range(1 + int(rng.integers(3)))] + extra)
        ok = ok and rapidity_forms_agree(sys)
        g = random_gamma(rng)  # a cancelling system with both
        ok = ok and rapidity_forms_agree(make_system([g, -1.0 / g, 0.0, "inf"]))
    # same-sign-velocity cancelling system: a_n = eta_n e^{theta_n} with
    # sum a = sum 1/a = 0 and every |a| > 1, so all six edge velocities are positive
    s = math.sqrt(913.0 / 13.0)
    a_vals = [1.5, 2.0, 10.0, -2.5, (-11.0 + s) / 2.0, (-11.0 - s) / 2.0]
    sys6 = make_system([(a - 1.0) / (a + 1.0) for a in a_vals])
    rep6 = residuals(sys6)
    ok = ok and rep6.cancels()
    ok = ok and all(ch.epsilon == 1 for ch in sys6.characters)
    flip = math.log(min(abs(a) for a in a_vals))  # smallest rapidity ~ 0.27
    preserved = boost_invariance_scan(sys6, [-0.9 * flip, 0.0, 0.5, 1.5])
    ok = ok and all(e.velocity_signs_preserved and e.cancels for e in preserved)
    flipped = boost_invariance_scan(sys6, [-1.5 * flip, -3.0 * flip])
    ok = ok and all((not e.velocity_signs_preserved) and (not e.cancels) for e in flipped)
    # mixed-sign pair: cancellation lost under any nonzero boost
    pair_scan = boost_invariance_scan(conjugate_pair(2.0), [0.0, 0.25, -0.25])
    ok = ok and pair_scan[0].cancels and not pair_scan[1].cancels and not pair_scan[2].cancels
    verdict(11, "multi-fermion cancellation constraints", ok)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    ok = True
    stdout_cmds = [
        ["spectrum", "--m", "1", "--gamma", "2", "--points", "11"],
        ["spectrum", "--m", "1", "--gamma", "inf", "--points", "5"],
        ["profile", "--m", "1", "--gamma", "2", "--points", "11"],
        ["oracle", "--m", "1", "--gamma", "2", "--x", "0.7", "--what", "edge"],
        ["constraints", "--gammas", "2,-0.5,3"],
        ["constraints", "--solve", "2", "--fix", "2"],
        ["dual", "--m", "1", "--gamma", "2", "--which", "halfplane"],
    ]
    for argv in stdout_cmds:
        code1 = cli_main(argv)
        cap1 = capsys.readouterr()
        code2 = cli_main(argv)
        cap2 = capsys.readouterr()
        ok = ok and code1 == code2 == 0
        ok = ok and cap1.out == cap2.out and cap1.err == cap2.err
    out = tmp_path / "run.csv"
    argv = ["profile", "--m", "1", "--gamma", "-3", "--points", "11", "--out", str(out)]
    cli_main(argv)
    blobs = (out.read_bytes(), (tmp_path / "run.csv.json").read_bytes())
    cli_main(argv)
    ok = ok and blobs == (out.read_bytes(), (tmp_path / "run.csv.json").read_bytes())
    json.loads(blobs[1])  # sidecar is well-formed JSON
    capsys.readouterr()
    verdict(12, "CLI byte-identical determinism", ok)
