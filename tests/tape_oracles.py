"""Traced reference implementations that the closed-form code is checked against.

The library computes these in closed-form numpy; the tests keep the traced
forms, built from ``hyperfl.autodiff`` primitives, as oracles.  The attacks'
Adam loop steps one flat vector per search; the per-key loop it replaced is
kept here as its oracle.
"""

import math

import numpy as np

from hyperfl import attack as atk
from hyperfl import autodiff as ad
from hyperfl import network as nn
from hyperfl.errors import ConsistencyError, DimensionError, NumericError


def hypernet_forward_sym(v, phi_h, spec):
    """Traced hypernetwork forward pass; accepts Vars or arrays for ``v`` and ``phi_h``."""
    vv = ad.as_var(v)
    if vv.shape != (spec.embedding_dim,):
        raise DimensionError(f"embedding must have shape ({spec.embedding_dim},), got {vv.shape}")

    row = ad.reshape(vv, (1, spec.embedding_dim))
    hidden = ad.matmul(row, ad.transpose(ad.as_var(phi_h["hyper/trunk/W"])))
    hidden = ad.add(hidden, ad.reshape(ad.as_var(phi_h["hyper/trunk/b"]), (1, spec.hidden_dim)))
    hidden = ad.relu(hidden)

    theta = {}
    for name, shape in spec.target:
        w = ad.as_var(phi_h[f"hyper/head/{name}/W"])
        b = ad.as_var(phi_h[f"hyper/head/{name}/b"])
        flat = ad.add(ad.matmul(hidden, ad.transpose(w)), ad.reshape(b, (1, b.shape[0])))
        theta[name] = ad.reshape(flat, shape)
    return theta


def value_and_grads(objective, xs):
    """Loss and gradients of a traced objective through the autodiff tape."""
    names = sorted(xs)
    leaves = {k: ad.Var(np.asarray(xs[k], dtype=np.float64)) for k in names}
    out = objective(leaves)
    if not isinstance(out, ad.Var):
        raise NumericError("attack objective must return an autodiff scalar")
    grads = ad.grad(out, [leaves[k] for k in names])
    return float(out.data), {k: g.data for k, g in zip(names, grads)}


def forward_loss(params, spec, x, y):
    """Mean cross-entropy of a batch from one traced forward pass."""
    nn.check_params(params, spec)
    return float(nn.forward_loss_sym(params, spec, np.asarray(x, dtype=np.float64), y).data)


def grad_params_sym(params, spec, x, y):
    """Traced parameter gradients, usable inside a further-differentiated objective."""
    loss = nn.forward_loss_sym(params, spec, x, y)
    names = sorted(params.keys())
    grads = ad.grad(loss, [params[n] for n in names])
    return dict(zip(names, grads))


def total_variation_sym(x):
    """Traced anisotropic total variation of a 2-D image Var."""
    if x.ndim != 2:
        raise DimensionError(f"total_variation expects an H x W image, got shape {x.shape}")
    dv = ad.sub(ad.slice_(x, (slice(1, None), slice(None))), ad.slice_(x, (slice(0, -1), slice(None))))
    dh = ad.sub(ad.slice_(x, (slice(None), slice(1, None))), ad.slice_(x, (slice(None), slice(0, -1))))
    return ad.add(ad.sum_(ad.abs_(dv)), ad.sum_(ad.abs_(dh)))


def gradient_loss_sym(sim, obs):
    """Cosine gradient-matching loss between traced gradients ``sim`` and arrays ``obs``."""
    names = sorted(obs)
    # cosine distance over the concatenation of all tensors; obs_sq uses numpy's
    # pairwise .sum() like the tape's sum_ below (not tree_sq_norm): cos(o, o) stays within 1 eps
    obs_sq = float(sum(np.sum(np.square(o)) for o in obs.values()))
    if obs_sq == 0.0:
        raise ConsistencyError("observed gradient is identically zero; cosine loss undefined")
    num = None
    sim_sq = None
    for k in names:
        n = ad.sum_(ad.mul(sim[k], ad.constant(obs[k])))
        s = ad.sum_(ad.square(sim[k]))
        num = n if num is None else ad.add(num, n)
        sim_sq = s if sim_sq is None else ad.add(sim_sq, s)
    denom = ad.mul(ad.sqrt(sim_sq), ad.constant(np.float64(math.sqrt(obs_sq))))
    return ad.sub(ad.constant(np.float64(1.0)), ad.div(num, denom))


def matching_objective_sym(params, spec, obs, label, tv_coeff):
    """ig_attack's objective traced through the tape (second order)."""
    y = np.array([label], dtype=np.int64)

    def objective(leaves):
        x_row = ad.reshape(leaves["x"], (1, spec.in_dim))
        leaf_params = {k: ad.Var(np.asarray(params[k], dtype=np.float64)) for k in spec.param_shapes()}
        out = gradient_loss_sym(grad_params_sym(leaf_params, spec, x_row, y), obs)
        if tv_coeff > 0:
            out = ad.add(out, ad.mul(ad.constant(np.float64(tv_coeff)), total_variation_sym(leaves["x"])))
        return out

    return objective


def per_key_adam(value_and_grads, init, cfg):
    """``attack._optimize`` as a loop over a dict of arrays, one Adam update per key.

    It differs from the flat loop in one row only: after an early stop on a
    non-finite loss or gradient, it evaluates the same iterate once more and
    labels the last trace row ``cfg.iterations``.
    """
    xs = {k: np.array(v, dtype=np.float64, copy=True) for k, v in init.items()}
    best = {k: v.copy() for k, v in xs.items()}
    best_loss = math.inf
    trace = []

    if cfg.iterations == 0:
        loss, _ = value_and_grads(xs)
        trace.append(atk.TraceRow(0, loss, loss))
        return xs, loss, trace

    m = {k: np.zeros_like(v) for k, v in xs.items()}
    u = {k: np.zeros_like(v) for k, v in xs.items()}
    lr = cfg.step_size
    milestones = atk._decay_milestones(cfg.iterations)

    for t in range(cfg.iterations):
        if t > 0 and t in milestones:
            lr *= 0.1
        loss, grads = value_and_grads(xs)
        if not math.isfinite(loss) or any(not np.all(np.isfinite(g)) for g in grads.values()):
            break
        if loss < best_loss:
            best_loss = loss
            best = {k: v.copy() for k, v in xs.items()}
        if t % 100 == 0:
            trace.append(atk.TraceRow(t, loss, best_loss))
        step = t + 1
        for k, g in grads.items():
            m[k] = atk._ADAM_BETA1 * m[k] + (1.0 - atk._ADAM_BETA1) * g
            u[k] = atk._ADAM_BETA2 * u[k] + (1.0 - atk._ADAM_BETA2) * np.square(g)
            m_hat = m[k] / (1.0 - atk._ADAM_BETA1**step)
            u_hat = u[k] / (1.0 - atk._ADAM_BETA2**step)
            xs[k] = xs[k] - lr * m_hat / (np.sqrt(u_hat) + atk._ADAM_EPS)

    final_loss, _ = value_and_grads(xs)
    if math.isfinite(final_loss) and final_loss < best_loss:
        best_loss = final_loss
        best = {k: v.copy() for k, v in xs.items()}
    trace.append(atk.TraceRow(cfg.iterations, final_loss, best_loss))
    return best, best_loss, trace
