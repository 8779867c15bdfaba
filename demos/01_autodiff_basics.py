"""A tour of the reverse-mode engine underneath training.

Every training step's loss gradient runs on this small Var graph; the
hypernetwork's passes and every attack objective are closed-form numpy,
tested against their traced form.  This script differentiates a couple of
expressions by hand, checks one against finite differences, and then takes
a gradient of a gradient, the operation behind the traced oracle that the
closed-form gradient-matching attack is tested against.
"""

import numpy as np

from hyperfl import autodiff as ad

rng = np.random.default_rng(0)

# A scalar expression: f(x) = sum((x * x) + 3x).  df/dx = 2x + 3.
x = ad.Var(rng.standard_normal(5))
f = ad.sum_(ad.add(ad.mul(x, x), ad.mul(ad.constant(3.0), x)))
(gx,) = ad.grad(f, [x])
print("f(x)      =", float(f.data))
print("autodiff  =", gx.data)
print("closed    =", 2 * x.data + 3)

# Matrix form: g(W) = ||W a||^2 has gradient 2 (W a) a^T.
# matmul wants 2-d operands, so the vector rides along as a column.
W = ad.Var(rng.standard_normal((3, 4)))
a = rng.standard_normal((4, 1))
y = ad.matmul(W, ad.constant(a))
g = ad.sum_(ad.square(y))
(gW,) = ad.grad(g, [W])
print("\nmatrix gradient matches closed form:",
      np.allclose(gW.data, 2 * (W.data @ a) @ a.T))

# Finite differences as a referee, the same check the test suite runs.
def g_value(w):
    return float(np.sum((w @ a) ** 2))

h = 1e-5
fd = np.zeros_like(W.data)
for i in range(3):
    for j in range(4):
        wp = W.data.copy(); wp[i, j] += h
        wm = W.data.copy(); wm[i, j] -= h
        fd[i, j] = (g_value(wp) - g_value(wm)) / (2 * h)
print("max |autodiff - fd| =", float(np.max(np.abs(gW.data - fd))))

# Second order: d/dx of ||df/dx||^2.  The inner grad call keeps its graph
# alive, so the outer grad sees through it.  For f = sum(x^3) the inner
# gradient is 3x^2, its squared norm is 9 sum(x^4), and the derivative of
# that is 36 x^3.
x2 = ad.Var(rng.standard_normal(4))
inner = ad.sum_(ad.mul(ad.mul(x2, x2), x2))
(gi,) = ad.grad(inner, [x2])
outer = ad.sum_(ad.square(gi))
(go,) = ad.grad(outer, [x2])
print("\ngrad-of-grad =", go.data)
print("36 x^3       =", 36 * x2.data**3)
