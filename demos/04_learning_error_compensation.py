"""Designing against a learned drift model and compensating its error.

When the drift is unknown it is learned component-wise by standard GP
regression; the posterior covariance quantifies the learning error.  Two
compensation tools: the second-moment margin check on the stochastic
closed-loop representation, and probability-inflated Jacobian hulls that
carry an explicit confidence level into the vertex certificates.
"""

import numpy as np

from contragp import drift_gp, stochastic, synthesis, systems, verify_sim
from contragp.kernels import Kernel

rng = np.random.default_rng(7)
system = systems.sine1d()
box = systems.Box.make([0.0], [np.pi])

# ---------------------------------------------------------------------------
# 1. Learn the drift from noisy one-step data.

pts = systems.grid_points(box, 15)
targets = system.drift(pts)
targets += 0.005 * rng.standard_normal(targets.shape)
model = drift_gp.fit_drift(
    drift_gp.DriftDataset(pts, targets, sigma_y=0.005), Kernel(dim=1))
mid = np.array([[1.5]])  # every posterior quantity takes a stack of states
print("posterior std at x=1.5:", model.value_std(mid)[0, 0])
print("jacobian-row std:",
      np.sqrt(model.components[0].jac_variance(mid)[0, 0, 0]))

# ---------------------------------------------------------------------------
# 2. Probability-inflated hulls: vertex certificates with a confidence tag.

design = model.as_system_model(b=system.b)
hulls = synthesis.build_hulls(design, box, 8, inflation=0.1)
phulls = stochastic.chebyshev_hulls(model, hulls, c=8.0)
print("\nhull widths: base", round(float((hulls.hi - hulls.lo).max()), 4),
      "-> inflated", round(float((phulls.hi - phulls.lo).max()), 4),
      "| confidence", phulls.confidence)

report = synthesis.run_synthesis(design, Kernel(dim=1), phulls.centers,
                                 mode="polytopic", hulls=phulls, rho=10.0)
ver_true = verify_sim.verify_grid(system, report.controller, report.P, box, 101)
print("designed on the learned model; TRUE-system verification:",
      "min margin", round(ver_true.min_margin, 4),
      "| factor", round(ver_true.lam, 4))

# ---------------------------------------------------------------------------
# 3. Moment margins of the learned stochastic closed loop
#    x+ = f(x) + b u(x) + diag(sigma(x)) w, sigma the posterior std: the
#    closed-loop mean Jacobians and the diffusion-gradient rows at a stack
#    of states go into one stacked check.

grid = systems.grid_points(box, 21)
mrep = stochastic.moment_ies_check(
    np.linalg.inv(report.P), grid,
    synthesis.closed_loop_jacobians(design, report.controller, grid),
    *stochastic.sigma_jacobian(model, grid))
print("\nsecond-moment margin over the grid:", round(mrep.eps_bar, 4),
      "| passed:", mrep.passed,
      "| max diffusion penalty:", round(float(mrep.noise_terms.max()), 5))

# ---------------------------------------------------------------------------
# 4. Seeded rollouts of the same loop: the deterministic rollouts with the
#    posterior std as their noise term.

t1, t2 = (verify_sim.rollouts(design, report.controller, [[3.0]], 100,
                              noise_std=model.value_std, seed=1)[0]
          for _ in range(2))
print("\nsame seed, same trajectory:",
      bool(np.array_equal(t1.states, t2.states)),
      "| final state:", t1.states[-1])
