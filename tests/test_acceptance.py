"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion."""

import json
import os
import time

import numpy as np
import pytest

from contragp import cli, deriv_gp, lmi, stochastic, synthesis, systems, verify_sim
from contragp.kernels import Kernel

from test_deriv_gp import fit_objective_gradient
from test_kernels import fd_grad_x2, fd_hess_cross
from test_lmi import (assemble_margin, random_feasible_problem,
                      scalar_family_problem)
from test_stochastic import quadratic_margin


def _report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def reproduced_dir(tmp_path_factory):
    """One full default oscillator reproduction; reused by criteria 9/12."""
    out = tmp_path_factory.mktemp("repro-a")
    rc = cli.main(["reproduce-oscillator", "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def test_criterion_01_kernel_calculus():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_g = worst_h = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        M = rng.normal(size=(n, n))
        k = Kernel(beta=float(rng.uniform(0.5, 2.0)),
                   sigma=M @ M.T + n * np.eye(n))
        x, y = rng.normal(size=n), rng.normal(size=n)
        fg = fd_grad_x2(k, x, y)
        worst_g = max(worst_g,
                      np.abs(k.grad_x2_outer([x], [y])[0, 0] - fg).max()
                      / max(1.0, np.abs(fg).max()))
        fh = fd_hess_cross(k, x, y)
        worst_h = max(worst_h,
                      np.abs(k.hess_cross_outer([x], [y])[0, 0] - fh).max()
                      / max(1.0, np.abs(fh).max()))
    elapsed = time.time() - t0
    _report(1, worst_g < 1e-6 and worst_h < 1e-5 and elapsed < 1.0,
            f"grad err {worst_g:.2e} (<1e-6), hess err {worst_h:.2e} "
            f"(<1e-5), {elapsed:.2f}s (<1s)")


def test_criterion_02_gradient_interpolation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        X = rng.normal(size=(10, 2)) * 1.5
        T = rng.normal(size=(10, 2))
        c = deriv_gp.fit(Kernel(dim=2), deriv_gp.DerivativeDataset(X, T, 0.0))
        G = c.control_grad_batch(X)
        worst = max(worst, np.abs(G - T).max() / (1.0 + np.abs(T).max()))
    _report(2, worst < 1e-6, f"max interpolation defect {worst:.2e} (<1e-6)")


def test_criterion_03_regularized_fit_stationarity():
    rng = np.random.default_rng(103)
    worst = 0.0
    k = Kernel(dim=2)
    for sigma_p in (0.01, 0.1):
        for _ in range(10):
            X = rng.normal(size=(6, 2)) * 1.5
            T = rng.normal(size=(6, 2))
            ds = deriv_gp.DerivativeDataset(X, T, sigma_p)
            c = deriv_gp.fit(k, ds)
            K0 = deriv_gp.build_gram_K0(k, X)
            y = ds.stacked_targets()
            g = fit_objective_gradient(K0, sigma_p, y, c.weights)
            worst = max(worst, np.linalg.norm(g)
                        / (1.0 + np.linalg.norm(y)))
    _report(3, worst < 1e-8, f"max objective-gradient norm {worst:.2e} (<1e-8)")


def test_criterion_04_schur_oracle():
    rng = np.random.default_rng(104)
    agree = total = 0
    while total < 200:
        M = rng.normal(size=(2, 2))
        P = M @ M.T + 0.2 * np.eye(2)
        A = rng.normal(size=(2, 2)) + np.outer(rng.normal(size=2),
                                               rng.normal(size=2))
        m_block = float(np.linalg.eigvalsh(synthesis.ies_block(P, A))[0])
        m_quad = float(np.linalg.eigvalsh(
            P - P @ A.T @ np.linalg.solve(P, A @ P))[0])
        if abs(m_block) < 1e-10 or abs(m_quad) < 1e-10:
            continue
        total += 1
        agree += int((m_block > 0) == (m_quad > 0))
    _report(4, agree == total, f"sign agreement {agree}/{total}")


def test_criterion_05_lmi_soundness():
    rng = np.random.default_rng(105)
    sound = True
    for _ in range(50):
        prob, _ = random_feasible_problem(rng)
        sol = lmi.solve(prob)
        sound &= sol.status != "infeasible"
        sound &= assemble_margin(prob, sol.z) >= sol.margin - 1e-8
    sol = lmi.solve(scalar_family_problem())
    err = abs(sol.margin - 10.0)
    _report(5, sound and err <= 1e-4,
            f"50/50 sound, worked-example margin error {err:.2e} (<=1e-4)")


def test_criterion_06_oscillator_end_to_end(oscillator, control_box,
                                            osc_two_step):
    t0 = time.time()
    rep = osc_two_step
    feasible = rep.eps > 0.0
    ver = verify_sim.verify_grid(oscillator, rep.controller, rep.P,
                                 control_box, 41)
    W = np.linalg.inv(rep.P)
    inits = systems.boundary_states(control_box, 16)
    trajs = verify_sim.rollouts(oscillator, rep.controller, inits, 10_000)
    monotone_ok = True
    final_ok = True
    for x0, traj in zip(inits, trajs):
        X = traj.states
        final_ok &= np.linalg.norm(X[-1]) < 0.05 * np.linalg.norm(x0)
        # weighted-norm decrease at every step that starts inside the box
        # and above the 1e-10 roundoff floor
        d = np.sqrt(np.einsum("ki,ij,kj->k", X, W, X))
        inside = np.all((X[:-1] >= control_box.lo_arr)
                        & (X[:-1] <= control_box.hi_arr), axis=1)
        counted = inside & (d[:-1] >= 1e-10)
        monotone_ok &= not np.any(counted & (d[1:] > d[:-1] * (1.0 + 1e-9)))
    elapsed = time.time() - t0
    _report(6, feasible and ver.min_margin > 0.0 and ver.lam < 1.0
            and monotone_ok and final_ok and elapsed < 300.0,
            f"eps {rep.eps:.4f} (>0), grid min margin {ver.min_margin:.4f} "
            f"(>0), lambda {ver.lam:.5f} (<1), monotone {monotone_ok}, "
            f"final ratios ok {final_ok}, {elapsed:.0f}s (<300s); "
            f"P={np.round(rep.P, 2).tolist()} vs reference "
            "[[30.3,-25.2],[-25.2,30.0]] (normalization-dependent)")


def test_criterion_07_joint_vs_two_step(oscillator, control_box, osc_two_step,
                                        osc_joint):
    toy = systems.SystemModel(
        1, lambda X: 2.0 * X, lambda X: np.full((len(X), 1, 1), 2.0),
        b=[1.0], equilibrium=[0.0])
    t2 = synthesis.run_synthesis(toy, Kernel(dim=1), np.array([[0.0]]),
                                 mode="two-step")
    tj = synthesis.run_synthesis(toy, Kernel(dim=1), np.array([[0.0]]),
                                 mode="joint")
    toy_delta = abs(t2.controller.control_grad_batch([[0.0]])[0, 0]
                    - tj.controller.control_grad_batch([[0.0]])[0, 0])
    lam2 = verify_sim.verify_grid(oscillator, osc_two_step.controller,
                                  osc_two_step.P, control_box, 41).lam
    lamj = verify_sim.verify_grid(oscillator, osc_joint.controller,
                                  osc_joint.P, control_box, 41).lam
    _report(7, toy_delta < 1e-6 and lam2 < 1.0 and lamj < 1.0,
            f"toy gradient agreement {toy_delta:.2e} (<1e-6), "
            f"lambda two-step {lam2:.5f}, joint {lamj:.5f} (both <1)")


def test_criterion_08_polytope_trend():
    sine = systems.sine1d()
    box = systems.Box.make([0.0], [np.pi])
    kernel = Kernel(dim=1)
    margins = []
    members = []
    for r in (2, 4, 8):
        hulls = synthesis.build_hulls(sine, box, r, inflation=0.1)
        ok, worst, _ = hulls.check_membership(sine.drift_jacobian, per_axis=6)
        members.append(ok)
        rep = synthesis.run_synthesis(sine, kernel, hulls.centers,
                                      mode="polytopic", hulls=hulls, rho=10.0)
        v = verify_sim.verify_grid(sine, rep.controller, rep.P, box, 101)
        margins.append(v.min_margin)
    trend = all(margins[i + 1] >= margins[i] - 1e-9 for i in range(2))
    _report(8, all(members) and trend,
            f"membership {members}, margins {[round(m, 4) for m in margins]} "
            "nondecreasing")


def test_criterion_09_learned_pipeline(reproduced_dir):
    summary = json.load(open(reproduced_dir / "summary.json"))
    ok = (summary["feasible"] and summary["lambda"] < 1.0
          and summary["min_margin"] > 0.0
          and summary["max_final_ratio"] < 0.1)
    _report(9, ok,
            f"learned-model synthesis feasible, lambda {summary['lambda']:.5f}"
            f" (<1), min margin {summary['min_margin']:.5f} (>0), true-system"
            f" max final ratio {summary['max_final_ratio']:.2e} (<0.1)")


def test_criterion_10_moment_arithmetic():
    def margin(noise_grad):
        # x+ = 0.5 x + sigma(x) w at the origin, metric 1
        return stochastic.moment_ies_check(
            [[1.0]], [[0.0]], np.full((1, 1, 1), 0.5),
            np.full((1, 1, 1), noise_grad),
            np.zeros((1, 1), dtype=bool)).margins[0]

    m1 = margin(0.1)
    m2 = margin(0.9)
    exact = abs(m1 - 0.74) <= 1e-12 and abs(m2 - (-0.06)) <= 1e-12
    rng = np.random.default_rng(110)
    M = rng.normal(size=(2, 2))
    Pbar = M @ M.T + 0.5 * np.eye(2)
    J = 0.4 * rng.normal(size=(2, 2))
    margins = stochastic.moment_ies_check(
        Pbar, rng.normal(size=(5, 2)), np.broadcast_to(J, (5, 2, 2)),
        np.zeros((5, 2, 2)), np.zeros((5, 2), dtype=bool)).margins
    reduction = np.abs(margins - quadratic_margin(J, Pbar)).max()
    _report(10, exact and reduction < 1e-10,
            f"plug-ins {m1:.2f}/{m2:.2f} exact, deterministic reduction "
            f"defect {reduction:.2e} (<1e-10)")


def test_criterion_11_chebyshev_coverage():
    from test_stochastic import _StubModel, unit_hull

    rng = np.random.default_rng(111)
    c, n = 40.0, 2
    h = unit_hull()
    worst = 1.0
    for _ in range(10):
        var = rng.uniform(0.005, 0.08, size=2)
        model = _StubModel(var)
        ch = stochastic.chebyshev_hulls(model, h, c)
        i = int(rng.integers(0, n))
        center = 0.5 * (h.lo[0, i] + h.hi[0, i])
        samples = center + rng.standard_normal((100_000, n)) * np.sqrt(var)
        frac = float(np.mean(np.all(
            (samples >= ch.lo[0, i]) & (samples <= ch.hi[0, i]), axis=1)))
        worst = min(worst, frac)
    conf = stochastic.chebyshev_hulls(_StubModel([0.01, 0.01]), h, c).confidence
    _report(11, worst >= 1 - n / c - 0.02 and conf == (1 - n / c) ** n
            and conf == 0.9025,
            f"min empirical coverage {worst:.4f} (>=0.93), joint confidence "
            f"{conf} (=0.9025 exactly)")


def test_criterion_12_determinism(reproduced_dir, tmp_path_factory):
    out_b = tmp_path_factory.mktemp("repro-b")
    rc = cli.main(["reproduce-oscillator", "--out", str(out_b), "--quiet"])
    assert rc == 0

    def tree(root):
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                full = os.path.join(dirpath, name)
                files[os.path.relpath(full, root)] = full
        return files

    ta, tb = tree(reproduced_dir), tree(out_b)
    same_set = set(ta) == set(tb)
    diffs = [rel for rel in ta
             if rel in tb and open(ta[rel], "rb").read() != open(tb[rel], "rb").read()]
    _report(12, same_set and not diffs,
            f"{len(ta)} artifacts, identical file sets {same_set}, "
            f"byte-diffs {diffs if diffs else 'none'}")
