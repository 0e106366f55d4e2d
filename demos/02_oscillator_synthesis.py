"""Two-step synthesis on the negative-resistance oscillator.

Step 1 picks a constant metric P from a family of constraints that only see
the unactuated directions (the input column is projected out); step 2 picks
gradient targets making every closed-loop certificate block PSD.  The fitted
law is then certified on a dense grid and rolled out from the boundary of
the design box.
"""

import numpy as np

from contragp import synthesis, systems, verify_sim
from contragp.kernels import Kernel

system = systems.oscillator()
box = systems.Box.make([-2.0, -2.0], [2.0, 2.0])
points = systems.grid_points(box, 7)  # 49 design points
kernel = Kernel(dim=2)

print("metric step over", len(points), "design points...")
P, eps_p = synthesis.solve_metric(system, points, rho=10.0)
print("P =\n", np.round(P, 3))
print("annihilated decrease margin eps_p =", round(eps_p, 5))

print("\ngain step...")
report = synthesis.solve_gain(system, P, kernel, points, eps_p=eps_p, rho=10.0)
print("certificate margin at design points eps =", round(report.eps, 5))

print("\ngrid certification (41 x 41)...")
ver = verify_sim.verify_grid(system, report.controller, P, box, 41)
print("min block margin:", round(ver.min_margin, 5),
      "| contraction factor:", round(ver.lam, 6),
      "| consistent:", ver.consistent)

print("\nrollouts from the box boundary (the law is shifted so u(0) = 0)...")
controller = report.controller.with_offset_at(np.zeros(2))
W = np.linalg.inv(P)  # steps contract in this weighted norm
for x0 in systems.boundary_states(box, 4):
    traj = verify_sim.rollouts(system, controller, [x0], 8000)[0]
    print(f"  from {x0}: |x_K| = {np.linalg.norm(traj.states[-1]):.2e}")

t1 = verify_sim.rollouts(system, controller, [[2.0, 2.0]], 2000)[0]
t2 = verify_sim.rollouts(system, controller, [[-2.0, 1.0]], 2000)[0]
lam_hat, info = verify_sim.contraction_rate([(t1, t2)], W, region=box)
print("\nempirical pairwise step ratio (P^-1-weighted):", round(lam_hat, 6),
      "over", info["used"], "steps")
