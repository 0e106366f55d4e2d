"""Independent checks of the pipeline's artifacts.

Nothing here imports ``contragp``. The feedback law is rebuilt from
``controller.json``, the learned drift from ``drift_model.json`` and the
oscillator from its equations, all in plain numpy. Every closed-loop
Jacobian comes from central differences of the rebuilt maps, never from the
program's own gradient code.

Each check returns a :class:`Outcome`. ``"wrong"`` means an artifact
disagrees with the recomputation; ``"failed"`` means the operation the check
stands for did not succeed (a certificate that does not hold where it is
claimed).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

# Noise-free laws interpolate gradient targets through a nearly singular
# Gram matrix: on the 8x8 polytopic design the weights reach 3e10 and the
# law's value is a sum of terms ~1e11 that cancel to O(1). The rebuilt law
# therefore runs in extended precision (eps 1.1e-19), and Jacobians use the
# fourth-order central difference with a step that balances its roundoff
# (eps * 1e11 / h) against its truncation (h^4 f^(5) / 30). On that design
# the gradient error is 6e-6, which moves block margins by less than 1e-6.
FD_STEP = 3e-3
# Block margins, contraction factors and moment margins recomputed through
# central differences must agree within the LMI solver's width (1e-6 rho at
# the benchmark's rho = 10).
MARGIN_TOL = 1e-5
# Law values: the program sums the same terms in double precision, so its
# value may differ from the extended-precision one by the roundoff of that
# sum, bounded by SUM_ULPS * eps * (sum of |terms|).
SUM_ULPS = 16
EPS = float(np.finfo(float).eps)
# Logged next states are recomputed from the logged state and input with
# the same arithmetic up to summation order.
VALUE_RTOL = 1e-12
# Hull bounds come from the same closed-form Jacobian entries.
HULL_TOL = 1e-12


class CheckError(Exception):
    """An artifact is missing or has a form the checks do not cover."""


@dataclass
class Outcome:
    name: str
    status: str  # "pass" | "wrong" | "failed"
    detail: str


def _outcome(name, ok, detail, fail_status="wrong"):
    return Outcome(name, "pass" if ok else fail_status, detail)


def load_json(path):
    if not os.path.exists(path):
        raise CheckError(f"missing artifact {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path):
    """Header and float rows of a CSV artifact; empty cells read as NaN."""
    if not os.path.exists(path):
        raise CheckError(f"missing artifact {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) if tok else np.nan for tok in ln.split(",")]
            for ln in lines[1:] if ln]
    return header, np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# rebuilt maps


def _se_parts(X, points, beta, S_inv):
    """Squared-exponential values k(x, p_j) and whitened differences."""
    D = X[:, None, :] - points[None, :, :]
    SD = D @ S_inv
    k = beta * np.exp(-0.5 * np.einsum("bji,bji->bj", D, SD))
    return k, SD


def _se_kernel(spec):
    if spec.get("family") != "squared-exponential":
        raise CheckError(f"kernel family {spec.get('family')!r} is not "
                         "covered by the checks")
    return float(spec["beta"]), np.linalg.inv(np.asarray(spec["sigma"], float))


class SELaw:
    """u(x) = sum_j dk(x, p_j)/dp_j . h_j - offset for an SE kernel,
    evaluated in extended precision."""

    def __init__(self, ctrl):
        if ctrl.get("value_points"):
            raise CheckError("laws with value anchors are not covered")
        beta, S_inv = _se_kernel(ctrl["kernel"])
        ext = np.longdouble
        self.beta = ext(beta)
        self.S_inv = S_inv.astype(ext)
        self.points = np.asarray(ctrl["points"], dtype=float).astype(ext)
        self.weights = np.asarray(ctrl["weights"], dtype=float).astype(
            ext).reshape(self.points.shape)
        self.offset = ext(float(ctrl.get("offset", 0.0)))

    def _terms(self, X):
        k, SD = _se_parts(np.asarray(X, dtype=np.longdouble), self.points,
                          self.beta, self.S_inv)
        return k[:, :, None] * SD * self.weights[None]

    def __call__(self, X):
        return self.evaluate(X)[0]

    def evaluate(self, X, chunk=2048):
        """Law values at X and the roundoff bound of a double-precision
        evaluation of the same sum."""
        X = np.atleast_2d(X)
        val = np.empty(X.shape[0], dtype=np.longdouble)
        mag = np.empty(X.shape[0])
        for s in range(0, X.shape[0], chunk):
            terms = self._terms(X[s:s + chunk])
            val[s:s + chunk] = terms.sum(axis=(1, 2))
            mag[s:s + chunk] = np.abs(terms).sum(axis=(1, 2))
        tol = SUM_ULPS * EPS * (mag + abs(float(self.offset)))
        return val - self.offset, tol


def osc_h(x1):
    return -x1 + x1 ** 3 - x1 ** 5 / 5.0 + x1 ** 7 / 105.0


def osc_h_prime(x1):
    return -1.0 + 3.0 * x1 ** 2 - x1 ** 4 + x1 ** 6 / 15.0


class Oscillator:
    """Forward-Euler negative-resistance oscillator, b = [0, dt]."""

    def __init__(self, dt):
        self.dt = float(dt)
        self.b = np.array([0.0, self.dt])

    def drift(self, X):
        X = np.atleast_2d(X)
        x1, x2 = X[:, 0], X[:, 1]
        return np.stack([x1 + self.dt * x2,
                         x2 + self.dt * (-x1 + osc_h(x1) * x2)], axis=-1)

    def jacobian(self, X):
        X = np.atleast_2d(X)
        x1, x2 = X[:, 0], X[:, 1]
        J = np.empty((X.shape[0], 2, 2))
        J[:, 0, 0] = 1.0
        J[:, 0, 1] = self.dt
        J[:, 1, 0] = self.dt * (-1.0 + osc_h_prime(x1) * x2)
        J[:, 1, 1] = 1.0 + self.dt * osc_h(x1)
        return J


class LearnedDrift:
    """Posterior means and standard deviations from ``drift_model.json``."""

    def __init__(self, data):
        if data.get("inputs") is not None:
            raise CheckError("input-augmented drift models are not covered")
        self.points = np.asarray(data["points"], dtype=float)
        self.comps = []
        for cd in data["components"]:
            if cd["type"] == "fixed-affine":
                self.comps.append(("fixed", float(cd["const"]),
                                   np.asarray(cd["linear"], dtype=float)))
                continue
            beta, S_inv = _se_kernel(cd["kernel"])
            K, _ = _se_parts(self.points, self.points, beta, S_inv)
            gram = K + float(cd["sigma_y"]) ** 2 * np.eye(len(self.points))
            self.comps.append(("gp", beta, S_inv,
                               np.asarray(cd["weights"], dtype=float), gram))

    def drift(self, X):
        X = np.atleast_2d(X)
        cols = []
        for c in self.comps:
            if c[0] == "fixed":
                cols.append(c[1] + X @ c[2])
            else:
                k, _ = _se_parts(X, self.points, c[1], c[2])
                cols.append(k @ c[3])
        return np.stack(cols, axis=-1)

    def std(self, X):
        X = np.atleast_2d(X)
        cols = []
        for c in self.comps:
            if c[0] == "fixed":
                cols.append(np.zeros(X.shape[0]))
                continue
            k, _ = _se_parts(X, self.points, c[1], c[2])
            var = c[1] - np.sum(k * np.linalg.solve(c[4], k.T).T, axis=1)
            cols.append(np.sqrt(np.maximum(var, 0.0)))
        return np.stack(cols, axis=-1)


def fd_jacobian(F, X, h=FD_STEP):
    """Fourth-order central-difference Jacobians of F: (B, n) -> (B, m),
    shape (B, m, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cols = []
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = h
        cols.append((8.0 * (F(X + e) - F(X - e))
                     - (F(X + 2 * e) - F(X - 2 * e))) / (12.0 * h))
    return np.stack(cols, axis=-1).astype(float)


def closed_loop(drift, b, law):
    """x -> f(x) + b u(x) on a stack of states (extended precision)."""
    return lambda X: (drift(X).astype(np.longdouble)
                      + law(X)[:, None] * b[None, :].astype(np.longdouble))


def block_min_eig(P, A):
    """lambda_min of [[P, (A P)^T], [A P, P]] for a stack of A."""
    A = np.asarray(A, dtype=float).reshape(-1, *P.shape)
    AP = A @ P
    Pb = np.broadcast_to(P, AP.shape)
    M = np.concatenate([np.concatenate([Pb, np.swapaxes(AP, 1, 2)], axis=2),
                        np.concatenate([AP, Pb], axis=2)], axis=1)
    return np.linalg.eigvalsh(M)[:, 0]


def contraction_factor(P, A):
    """sigma_max(L^{-1} A L) with P = L L^T, for a stack of A."""
    L = np.linalg.cholesky(P)
    return np.array([np.linalg.norm(np.linalg.solve(L, a @ L), 2) for a in A])


def annihilated_min_eig(P, J, b):
    """lambda_min of B_perp (P - J P J^T) B_perp^T for a stack of J."""
    from scipy.linalg import null_space
    Bp = null_space(np.atleast_2d(b)).T
    M = Bp @ (P[None] - J @ P @ np.swapaxes(J, 1, 2)) @ Bp.T
    return np.linalg.eigvalsh(M)[:, 0]


def grid(lo, hi, per_axis):
    """Uniform grid with the first axis varying slowest, like the program's
    verification grids."""
    axes = [np.linspace(l, h, per_axis) for l, h in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


# ---------------------------------------------------------------------------
# checks


def check_law_surface(out, law):
    """controller_surface.csv holds the rebuilt law's values."""
    _, tab = read_table(os.path.join(out, "controller_surface.csv"))
    n = tab.shape[1] - 1
    u, tol = law.evaluate(tab[:, :n])
    err = np.abs(u - tab[:, n]) / tol
    return _outcome("law.surface", err.max() <= 1.0,
                    f"{len(u)} points, max deviation {err.max():.2f} of the "
                    "roundoff bound")


def read_trajectories(out):
    """Tables of the controller rollouts, ``k, x_1, x_2, u`` per row."""
    folder = os.path.join(out, "trajectories")
    tables = []
    for name in sorted(os.listdir(folder)):
        header, tab = read_table(os.path.join(folder, name))
        if header != ["k", "x_1", "x_2", "u"]:
            raise CheckError(f"{name}: unexpected header {header}")
        tables.append(tab)
    return tables


def check_law_trajectories(trajs, law, system, horizon):
    """Every logged input is the rebuilt law at the logged state, and every
    logged next state is the true system's step under that input."""
    worst_u = worst_x = 0.0
    bad_rows = 0
    for tab in trajs:
        X = tab[:, 1:3]
        U = tab[:-1, 3]
        ok_k = np.array_equal(tab[:, 0], np.arange(tab.shape[0]))
        u, tol = law.evaluate(X[:-1])
        du = np.abs(u - U) / tol
        nxt = system.drift(X[:-1]) + U[:, None] * system.b[None, :]
        dx = np.max(np.abs(nxt - X[1:]) / (1.0 + np.abs(nxt)), axis=1)
        bad_rows += int(np.sum((du > 1.0) | (dx > VALUE_RTOL))) \
            + (0 if ok_k and tab.shape[0] == horizon + 1 else 1)
        worst_u = max(worst_u, float(du.max()))
        worst_x = max(worst_x, float(dx.max()))
    return _outcome("law.trajectories", bad_rows == 0 and len(trajs) > 0,
                    f"{len(trajs)} files, {bad_rows} bad rows, max deviation "
                    f"u {worst_u:.2f} of the roundoff bound, x {worst_x:.1e} "
                    "relative")


def check_convergence(trajs, limit=0.1):
    """Every controller rollout ends below ``limit`` times its start norm."""
    ratios = [float(np.linalg.norm(t[-1, 1:3]) / np.linalg.norm(t[0, 1:3]))
              for t in trajs]
    worst = max(ratios) if ratios else np.inf
    return _outcome("convergence", len(ratios) > 0 and worst < limit,
                    f"{len(ratios)} rollouts, max final ratio {worst:.3e}")


def check_grid(out, P, drift, b, law, rng, samples=64):
    """The grid verdict matches verification.csv, and sampled rows of the
    CSV match block margins and contraction factors recomputed from P and
    central differences of the closed loop."""
    _, tab = read_table(os.path.join(out, "verification.csv"))
    n = P.shape[0]
    X, margins, factors = tab[:, :n], tab[:, n], tab[:, n + 1]
    lam, mm = float(factors.max()), float(margins.min())
    certified = lam < 1.0 and mm > 0.0
    ver = load_json(os.path.join(out, "verification.json"))
    problems = []
    if ver["lambda"] != lam or ver["min_margin"] != mm:
        problems.append("verification.json extremes differ from the CSV")
    if ver["consistent"] != ((lam < 1.0) == (mm > 0.0)):
        problems.append("verification.json 'consistent' is wrong")
    summary_path = os.path.join(out, "summary.json")
    if os.path.exists(summary_path):
        summary = load_json(summary_path)
        if summary["grid_certified"] != certified:
            problems.append("summary.json grid_certified is wrong")
    idx = rng.choice(len(X), size=min(samples, len(X)), replace=False)
    A = fd_jacobian(closed_loop(drift, b, law), X[idx])
    dm = np.abs(block_min_eig(P, A) - margins[idx]).max()
    df = np.abs(contraction_factor(P, A) - factors[idx]).max()
    if dm > MARGIN_TOL or df > MARGIN_TOL:
        problems.append("sampled rows differ from the recomputation")
    return _outcome("grid.certificate", not problems,
                    f"lambda {lam:.6f}, min margin {mm:.6f}, certified "
                    f"{certified}; {len(idx)} rows recomputed, max deviation "
                    f"margin {dm:.1e}, factor {df:.1e}"
                    + ("; " + "; ".join(problems) if problems else ""))


def check_metric(report, rho, Js, b):
    """Eigenvalues of P lie in [1, rho], and eps_p is the smallest
    annihilated block recomputed from P over the metric family."""
    P = np.asarray(report["P"], dtype=float)
    ev = np.linalg.eigvalsh(P)
    eps_p = float(annihilated_min_eig(P, Js, b).min())
    in_range = ev[0] >= 1.0 - 1e-9 and ev[-1] <= rho * (1.0 + 1e-9)
    dev = abs(eps_p - float(report["eps_p"]))
    return _outcome("metric.P", in_range and dev <= MARGIN_TOL,
                    f"eig(P) in [{ev[0]:.6f}, {ev[-1]:.6f}], eps_p "
                    f"{report['eps_p']:.9f} vs recomputed {eps_p:.9f} "
                    f"over {len(Js)} Jacobians")


def max_margin_gain(P, J, b):
    """max over g of lambda_min([[P, (A P)^T], [A P, P]]), A = J + b g^T.

    The objective is concave in g, so Nelder-Mead with restarts converges
    to the global maximum.
    """
    # imported here, not at the top: scipy.optimize would add 20 MB to the
    # peak memory measured for the program
    from scipy.optimize import minimize

    scale = float(np.linalg.norm(b))
    B = np.outer(b, np.ones(len(b))) / scale

    n = len(b)
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = M[n:, n:] = P

    def neg(v):
        AP = (J + B * v[None, :]) @ P
        M[n:, :n] = AP
        M[:n, n:] = AP.T
        return -np.linalg.eigvalsh(M)[0]

    best = None
    for v0 in (np.zeros(len(b)), -np.ones(len(b))):
        v = v0
        for _ in range(4):
            simplex = v + 0.5 * np.vstack([np.zeros(len(b)), np.eye(len(b))])
            res = minimize(neg, v, method="Nelder-Mead", options={
                "initial_simplex": simplex, "xatol": 1e-11, "fatol": 1e-14,
                "maxiter": 20000})
            v = res.x
        if best is None or res.fun < best:
            best = res.fun
    return -best


def check_gain_optimum(report, Js, b, rho):
    """The reported eps is min_i max_g of the point blocks, within the
    solver width 1e-6 rho."""
    P = np.asarray(report["P"], dtype=float)
    X = np.asarray(report["points"], dtype=float)
    eps = float(report["eps"])
    opt = min(max_margin_gain(P, J, b) for J in Js)
    width = 1e-6 * rho
    return _outcome("gain.optimum", abs(eps - opt) <= width,
                    f"eps {eps:.10f}, optimum {opt:.10f}, difference "
                    f"{eps - opt:.1e} (width {width:.0e}) over {len(X)} "
                    "points")


def check_point_margins(report, drift, b, law):
    """Point margins and eps recomputed from P and the rebuilt law."""
    P = np.asarray(report["P"], dtype=float)
    X = np.asarray(report["points"], dtype=float)
    margins = block_min_eig(P, fd_jacobian(closed_loop(drift, b, law), X))
    dev = float(np.abs(margins - np.asarray(report["point_margins"])).max())
    ok = dev <= MARGIN_TOL
    if report.get("vertex_margins") is None:
        ok = ok and abs(float(report["eps"]) - margins.min()) <= MARGIN_TOL
    return _outcome("gain.point_margins", ok,
                    f"{len(X)} points, max deviation {dev:.1e}")


def hull_intervals(system, lo, hi, r, samples, inflation):
    """Per-cell entrywise Jacobian intervals from the closed-form Jacobian
    on each cell's samples x samples subgrid; entries that vary are padded
    by inflation * (width + cell diameter)."""
    edges = [np.linspace(lo[i], hi[i], r + 1) for i in range(len(lo))]
    los, his = [], []
    for combo in itertools.product(range(r), repeat=len(lo)):
        clo = np.array([edges[i][c] for i, c in enumerate(combo)])
        chi = np.array([edges[i][c + 1] for i, c in enumerate(combo)])
        J = system.jacobian(grid(clo, chi, samples))
        jlo, jhi = J.min(axis=0), J.max(axis=0)
        width = jhi - jlo
        scale = np.maximum(1.0, np.maximum(np.abs(jlo), np.abs(jhi)))
        pad = inflation * (width + np.linalg.norm(chi - clo))
        pad[width <= 1e-10 * scale] = 0.0
        los.append(jlo - pad)
        his.append(jhi + pad)
    return np.stack(los), np.stack(his)


def check_hulls(hull_lo, hull_hi, ref_lo, ref_hi):
    """The program's hull bounds equal the recomputed ones."""
    dev = max(float(np.abs(hull_lo - ref_lo).max()),
              float(np.abs(hull_hi - ref_hi).max()))
    return _outcome("hulls.intervals", dev <= HULL_TOL,
                    f"{len(ref_lo)} cells, max deviation {dev:.1e}")


def hull_vertices(lo, hi):
    """Interval-endpoint matrices of one cell, in the program's order:
    free entries row-major, each choosing lo (0) or hi (1)."""
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    free = np.argwhere(hi - lo > 1e-10 * scale)
    out = []
    for combo in itertools.product((0, 1), repeat=len(free)):
        V = 0.5 * (lo + hi)
        for (r, c), pick in zip(free, combo):
            V[r, c] = hi[r, c] if pick else lo[r, c]
        out.append(V)
    return np.stack(out)


def check_vertex_margins(report, ref_lo, ref_hi, b, law):
    """Every vertex margin recomputed from P, the vertex and the law's
    gradient at the cell center; eps is their minimum."""
    P = np.asarray(report["P"], dtype=float)
    X = np.asarray(report["points"], dtype=float)
    grads = fd_jacobian(lambda Y: law(Y)[:, None], X)[:, 0, :]
    reported = report["vertex_margins"]
    dev = 0.0
    smallest = np.inf
    count = 0
    shape_ok = len(reported) == len(X)
    for i in range(len(X)):
        V = hull_vertices(ref_lo[i], ref_hi[i])
        m = block_min_eig(P, V + np.outer(b, grads[i])[None])
        if i >= len(reported) or len(reported[i]) != len(m):
            shape_ok = False
            continue
        dev = max(dev, float(np.abs(m - np.asarray(reported[i])).max()))
        smallest = min(smallest, float(m.min()))
        count += len(m)
    eps_dev = abs(float(report["eps"]) - smallest)
    return _outcome("hulls.vertex_margins",
                    shape_ok and dev <= MARGIN_TOL and eps_dev <= MARGIN_TOL,
                    f"{count} vertices, max deviation {dev:.1e}, eps "
                    f"{report['eps']:.6f} vs recomputed {smallest:.6f}")


def check_cell_region(P, system, law, lo, hi, r, per_axis=9):
    """The cell certificate holds on a dense grid inside every cell.

    The polytopic route claims a certificate for every cell because every
    vertex block is positive; this evaluates the true closed loop at
    per_axis x per_axis points of each cell and fails if any block margin
    is negative.
    """
    edges = [np.linspace(lo[i], hi[i], r + 1) for i in range(len(lo))]
    pts = []
    for combo in itertools.product(range(r), repeat=len(lo)):
        clo = np.array([edges[i][c] for i, c in enumerate(combo)])
        chi = np.array([edges[i][c + 1] for i, c in enumerate(combo)])
        pts.append(grid(clo, chi, per_axis))
    pts = np.concatenate(pts)
    m = block_min_eig(P, fd_jacobian(closed_loop(system.drift, system.b, law),
                                     pts))
    bad_cells = int(np.sum(m.reshape(r ** len(lo), -1).min(axis=1) < 0.0))
    return _outcome("cells.region_certificate", m.min() >= 0.0,
                    f"{len(pts)} in-cell points, min margin {m.min():.4f}, "
                    f"{bad_cells}/{r ** len(lo)} cells with a negative "
                    "margin", fail_status="failed")


def moment_margins(P, drift, b, law, X, h=FD_STEP):
    """Second-moment margins lambda_min(W - J^T W J - sum_i W_ii ds_i ds_i^T)
    with W = inv(P), J the learned closed-loop Jacobian and ds_i the
    central-difference gradient of the posterior std of component i."""
    W = np.linalg.inv(P)
    J = fd_jacobian(closed_loop(drift.drift, b, law), X, h)
    dS = fd_jacobian(drift.std, X, h)  # (B, n, n): row i is grad sigma_i
    noise = np.einsum("i,bij,bik->bjk", np.diag(W), dS, dS)
    M = W[None] - np.swapaxes(J, 1, 2) @ W @ J - noise
    return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))[:, 0]


def check_moment(out, P, drift, b, law, X):
    """moment_report.json margins and eps_bar match the recomputation."""
    rep = load_json(os.path.join(out, "moment_report.json"))
    ref = moment_margins(P, drift, b, law, X)
    got = np.asarray(rep["margins"], dtype=float)
    if got.shape != ref.shape:
        return _outcome("moment.margins", False,
                        f"{len(got)} margins reported, {len(ref)} expected")
    dev = float(np.abs(ref - got).max())
    ok = (dev <= MARGIN_TOL and abs(rep["eps_bar"] - ref.min()) <= MARGIN_TOL
          and rep["passed"] == bool(rep["eps_bar"] > 0.0))
    return _outcome("moment.margins", ok,
                    f"{len(ref)} points, eps_bar {rep['eps_bar']:.6f} vs "
                    f"recomputed {ref.min():.6f}, max deviation {dev:.1e}")
