"""Generating a network's weights from an embedding vector.

A client in this simulator never trains its feature extractor directly.
It trains a private embedding v and (shared) hypernetwork weights phi, and
the extractor falls out as theta = h(v; phi).  Two things are worth seeing
up close: nearby embeddings generate nearby extractors, and gradients flow
through the generation step back to both v and phi.
"""

import numpy as np

from hyperfl import hypernet as hn
from hyperfl import network as nn

fe = nn.dense_net("fe", [16, 8])
spec = hn.HypernetSpec(target=hn.target_from_netspec(fe), embedding_dim=4, hidden_dim=12)
phi, v = hn.init_hypernet(spec, seed=1)

print("target tensors:", dict(spec.target))
print("hypernet tensors:", {k: p.shape for k, p in phi.items()})

theta = hn.hypernet_forward(v, phi, spec)
total = sum(a.size for a in theta.values())
print(f"\ngenerated {total} extractor parameters from a {v.size}-dim embedding")

# Continuity: perturb the embedding a little and a lot.
rng = np.random.default_rng(2)
direction = rng.standard_normal(v.shape)
direction /= np.linalg.norm(direction)
for eps in (1e-3, 1e-1, 1.0):
    theta_eps = hn.hypernet_forward(v + eps * direction, phi, spec)
    dist = np.sqrt(sum(float(np.sum((theta_eps[k] - theta[k]) ** 2)) for k in theta))
    print(f"  |dv| = {eps:<6} -> |d theta| = {dist:.6f}")

# Gradient flow: feed the generated extractor into a classification loss,
# then pull the loss gradient back through the generator.
cls = nn.dense_net("cls", [8, 3])
full = nn.concat_specs(fe, cls)
phi_c = nn.init_params(cls, rng)
x = rng.standard_normal((5, 16))
y = rng.integers(0, 3, size=5)

before, g = nn.loss_and_grad_params(theta, full, x, y, frozen=phi_c)
d_phi, d_v = hn.hypernet_backward(g, v, phi, spec)
print("\nloss gradient reaches the embedding:", np.linalg.norm(d_v) > 0)
for name, t in d_phi.items():
    print(f"  d loss / d {name}: norm {np.linalg.norm(t):.4f}")

# One SGD step on (v, phi) through the composition actually lowers the loss.
v2 = v - 0.05 * d_v
phi2 = {k: phi[k] - 0.05 * d_phi[k] for k in phi}
after = nn.loss_and_grad_params({**hn.hypernet_forward(v2, phi2, spec), **phi_c}, full, x, y)[0]
print(f"\nloss before step {before:.4f}, after {after:.4f}")
