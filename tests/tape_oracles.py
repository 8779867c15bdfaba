"""Traced reference implementations that the closed-form code is checked against.

The library computes these in closed-form numpy; the tests keep the traced
forms, built from ``hyperfl.autodiff`` primitives, as oracles.
"""

from hyperfl import autodiff as ad
from hyperfl.errors import DimensionError


def hypernet_forward_sym(v, phi_h, spec):
    """Traced hypernetwork forward pass; accepts Vars or arrays for ``v`` and ``phi_h``."""
    vv = ad.as_var(v)
    if vv.shape != (spec.embedding_dim,):
        raise DimensionError(f"embedding must have shape ({spec.embedding_dim},), got {vv.shape}")

    row = ad.reshape(vv, (1, spec.embedding_dim))
    hidden = ad.matmul(row, ad.transpose(ad.as_var(phi_h["hyper/trunk/W"])))
    if spec.hidden_bias:
        hidden = ad.add(hidden, ad.reshape(ad.as_var(phi_h["hyper/trunk/b"]), (1, spec.hidden_dim)))
    hidden = ad.relu(hidden)

    theta = {}
    for name, shape in spec.target:
        w = ad.as_var(phi_h[f"hyper/head/{name}/W"])
        b = ad.as_var(phi_h[f"hyper/head/{name}/b"])
        flat = ad.add(ad.matmul(hidden, ad.transpose(w)), ad.reshape(b, (1, b.shape[0])))
        theta[name] = ad.reshape(flat, shape)
    return theta
