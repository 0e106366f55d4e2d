"""Fitting a feedback law from gradient data.

The core trick of this package: instead of choosing a control law u = p(x)
directly, prescribe the values its *gradient* should take at a handful of
states, and let a GP posterior mean turn those gradient targets into a
smooth scalar function.  Because the posterior mean is linear in the
targets, design conditions on the gradient become linear constraints - and
integrability is automatic, since the law is an actual function.
"""

import numpy as np

from contragp.deriv_gp import DerivativeDataset, fit
from contragp.kernels import Kernel

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. A single gradient observation: prescribe slope -2 at the origin.

kernel = Kernel(dim=1)  # unit Gaussian kernel
controller = fit(kernel, DerivativeDataset([[0.0]], [[-2.0]], sigma_p=0.0))

# every evaluation takes a stack of states, one state per row
print("law value at x=1:", controller.control_batch([[1.0]])[0])
print("   (closed form: -2 * 1 * exp(-1/2) =", -2 * np.exp(-0.5), ")")
print("law gradient at 0:", controller.control_grad_batch([[0.0]])[0],
      "(target was -2)")

# ---------------------------------------------------------------------------
# 2. Noise-free fits interpolate their gradient targets exactly.

points = rng.normal(size=(6, 2))
targets = rng.normal(size=(6, 2))
c2 = fit(Kernel(dim=2), DerivativeDataset(points, targets, sigma_p=0.0))
defect = np.abs(c2.control_grad_batch(points) - targets).max()
print("\nmax gradient interpolation defect over 6 points:", defect)

# ---------------------------------------------------------------------------
# 3. The law is linear in the data: superposing targets superposes laws.

t1, t2 = rng.normal(size=(2, 6, 2))
ca = fit(Kernel(dim=2), DerivativeDataset(points, t1, 0.0))
cb = fit(Kernel(dim=2), DerivativeDataset(points, t2, 0.0))
cc = fit(Kernel(dim=2), DerivativeDataset(points, 0.3 * t1 + 0.7 * t2, 0.0))
X = rng.normal(size=(1, 2))
print("\nlinearity check at a random state:",
      abs(cc.control_batch(X) - 0.3 * ca.control_batch(X)
          - 0.7 * cb.control_batch(X))[0])

# ---------------------------------------------------------------------------
# 4. Equilibrium preservation: shift the law by its value at the anchor.
#    The shift is a constant, so the gradient (and any certificate built
#    on it) is untouched.

origin = np.zeros((1, 2))
anchored = c2.with_offset_at(origin[0])
print("\noffset mode: control at anchor:", anchored.control_batch(origin)[0])
print("gradient unchanged:",
      np.allclose(anchored.control_grad_batch(origin),
                  c2.control_grad_batch(origin)))
