"""Differentiation engine checks against central finite differences.

Every gradient the engine produces is compared either to an independent
finite-difference estimate (h = 1e-5) or to a hand-derived closed form.
Second-order behaviour is exercised explicitly because downstream code
differentiates through gradient-valued objectives.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfl import autodiff as ad
from hyperfl.errors import CapabilityError, DimensionError

RNG = np.random.default_rng(20240811)


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar-valued f at x, coordinatewise."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def engine_grad(build, x):
    """Gradient of the scalar expression build(Var(x)) w.r.t. x."""
    v = ad.Var(x)
    out = build(v)
    return ad.grad(out, [v])[0].data


def check_against_fd(build, x, rtol=1e-5, atol=1e-8):
    got = engine_grad(build, x)

    def f(arr):
        return float(build(ad.Var(arr)).data)

    want = fd_grad(f, x)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


# -- first-order: elementwise and reductions ---------------------------------


def test_log_value_frozen():
    out = ad.log(ad.Var(np.array(10.0)))
    assert out.data == pytest.approx(2.302585092994046, abs=1e-15)


def test_exp_log_sqrt_grads_match_fd():
    x = RNG.uniform(0.5, 2.0, size=(3, 4))
    check_against_fd(lambda v: ad.sum_(ad.exp(v)), x)
    check_against_fd(lambda v: ad.sum_(ad.log(v)), x)
    check_against_fd(lambda v: ad.sum_(ad.sqrt(v)), x)


def test_power_and_square_grads_match_fd():
    x = RNG.uniform(0.5, 2.0, size=(5,))
    check_against_fd(lambda v: ad.sum_(ad.square(v)), x)


def test_abs_grad_is_sign_away_from_zero():
    x = np.array([-2.0, -0.5, 1.5, 3.0])
    got = engine_grad(lambda v: ad.sum_(ad.abs_(v)), x)
    np.testing.assert_array_equal(got, np.sign(x))


def test_relu_and_leaky_relu_grads():
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    got = engine_grad(lambda v: ad.sum_(ad.relu(v)), x)
    np.testing.assert_array_equal(got, np.array([0.0, 0.0, 1.0, 1.0]))
    got = engine_grad(lambda v: ad.sum_(ad.leaky_relu(v, 0.01)), x)
    np.testing.assert_array_equal(got, np.array([0.01, 0.01, 1.0, 1.0]))


def test_mean_and_sum_axis_grads_match_fd():
    x = RNG.normal(size=(4, 3))
    check_against_fd(lambda v: ad.sum_(ad.mean_(v, axis=0)), x)
    check_against_fd(lambda v: ad.sum_(ad.square(ad.sum_(v, axis=1, keepdims=True))), x)
    check_against_fd(lambda v: ad.mean_(ad.square(v)), x)


def test_division_grads_match_fd_both_sides():
    a = RNG.uniform(0.5, 2.0, size=(3, 3))
    b = RNG.uniform(0.5, 2.0, size=(3, 3))
    check_against_fd(lambda v: ad.sum_(ad.div(v, ad.constant(b))), a)
    check_against_fd(lambda v: ad.sum_(ad.div(ad.constant(a), v)), b)


# -- first-order: linear algebra and broadcasting ----------------------------


def test_matmul_grads_match_fd():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    check_against_fd(lambda v: ad.sum_(ad.square(ad.matmul(v, ad.constant(b)))), a)
    check_against_fd(lambda v: ad.sum_(ad.square(ad.matmul(ad.constant(a), v))), b)


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        ad.matmul(ad.Var(np.ones((2, 3))), ad.Var(np.ones((4, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.Var(np.ones(3)), ad.Var(np.ones((3, 2))))


def test_broadcast_mul_unbroadcasts_adjoints():
    col = RNG.normal(size=(3, 1))
    row = RNG.normal(size=(1, 4))
    check_against_fd(lambda v: ad.sum_(ad.mul(v, ad.constant(row))), col)
    check_against_fd(lambda v: ad.sum_(ad.mul(ad.constant(col), v)), row)


def test_bias_add_broadcast_grad_matches_fd():
    x = RNG.normal(size=(5, 3))
    b = RNG.normal(size=(1, 3))
    check_against_fd(lambda v: ad.sum_(ad.square(ad.add(ad.constant(x), v))), b)


def test_transpose_reshape_grads_match_fd():
    x = RNG.normal(size=(2, 6))
    check_against_fd(lambda v: ad.sum_(ad.square(ad.transpose(v))), x)
    check_against_fd(lambda v: ad.sum_(ad.square(ad.reshape(v, (3, 4)))), x)


# -- slicing: adjoint identity ------------------------------------------------


def test_slice_scatter_adjoint_identity():
    # <slice(x), y> == <x, scatter(y)> for the matching index expression.
    x = RNG.normal(size=(5, 4))
    idx = (slice(1, 4), slice(0, 3))
    y = RNG.normal(size=(3, 3))
    lhs = float(ad.dot(ad.slice_(ad.Var(x), idx), ad.constant(y)).data)
    rhs = float(ad.dot(ad.Var(x), ad.scatter(ad.constant(y), idx, x.shape)).data)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_slice_grad_matches_fd():
    x = RNG.normal(size=(4, 4))
    check_against_fd(lambda v: ad.sum_(ad.square(ad.slice_(v, (slice(1, None), slice(None, -1))))), x)


def test_fancy_indexing_rejected():
    with pytest.raises(CapabilityError):
        ad.slice_(ad.Var(np.ones((4, 4))), np.array([0, 0, 1]))


# -- logsumexp ----------------------------------------------------------------


def test_logsumexp_rows_value_and_softmax_grad():
    z = RNG.normal(size=(4, 6)) * 5.0
    got = ad.logsumexp_rows(ad.Var(z)).data
    want = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True))
    want += z.max(axis=1, keepdims=True)
    np.testing.assert_allclose(got, want, rtol=1e-12)

    g = engine_grad(lambda v: ad.sum_(ad.logsumexp_rows(v)), z)
    softmax = np.exp(z - z.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(g, softmax, rtol=1e-10, atol=1e-12)


def test_logsumexp_rows_stable_at_extreme_logits():
    z = np.array([[1000.0, 0.0], [-1000.0, -1000.0]])
    out = ad.logsumexp_rows(ad.Var(z)).data
    assert np.all(np.isfinite(out))
    g = engine_grad(lambda v: ad.sum_(ad.logsumexp_rows(v)), z)
    assert np.all(np.isfinite(g))


# -- second order --------------------------------------------------------------


def test_hessian_vector_product_of_cubic():
    # f(x) = sum(x^3): Hv = 6 x * v, exactly.
    x = RNG.normal(size=(7,))
    vec = RNG.normal(size=(7,))
    xv = ad.Var(x)
    f = ad.sum_(ad.mul(ad.square(xv), xv))
    (g,) = ad.grad(f, [xv])
    gv = ad.dot(g, ad.constant(vec))
    (hv,) = ad.grad(gv, [xv])
    np.testing.assert_allclose(hv.data, 6.0 * x * vec, rtol=1e-12)


def test_hessian_vector_product_matches_fd_of_gradient():
    # FD on the gradient map itself: (g(x+hv) - g(x-hv)) / 2h.
    x = RNG.normal(size=(6,))
    vec = RNG.normal(size=(6,))
    w = RNG.normal(size=(6, 6))

    def loss(v):
        y = ad.matmul(ad.reshape(v, (1, 6)), ad.constant(w))
        return ad.sum_(ad.exp(ad.mul(y, ad.constant(np.full((1, 6), 0.3)))))

    xv = ad.Var(x)
    (g,) = ad.grad(loss(xv), [xv])
    (hv,) = ad.grad(ad.dot(g, ad.constant(vec)), [xv])

    h = 1e-5
    gp = engine_grad(loss, x + h * vec)
    gm = engine_grad(loss, x - h * vec)
    np.testing.assert_allclose(hv.data, (gp - gm) / (2.0 * h), rtol=1e-4, atol=1e-7)


def test_mixed_partials_symmetric():
    a = ad.Var(np.array(1.3))
    b = ad.Var(np.array(-0.7))
    f = ad.mul(ad.exp(a), ad.square(b))
    (ga,) = ad.grad(f, [a])
    (gab,) = ad.grad(ad.sum_(ga), [b])
    (gb,) = ad.grad(f, [b])
    (gba,) = ad.grad(ad.sum_(gb), [a])
    assert gab.data == pytest.approx(gba.data, rel=1e-12)
    assert gab.data == pytest.approx(np.exp(1.3) * 2.0 * (-0.7), rel=1e-12)


def test_grad_of_gradient_norm_through_logsumexp():
    # The stabilized logsumexp must stay exact at second order too.
    z = RNG.normal(size=(2, 3))
    zv = ad.Var(z)
    (g,) = ad.grad(ad.sum_(ad.logsumexp_rows(zv)), [zv])
    obj = ad.sum_(ad.square(g))
    (gg,) = ad.grad(obj, [zv])

    def outer(arr):
        vv = ad.Var(arr)
        (gi,) = ad.grad(ad.sum_(ad.logsumexp_rows(vv)), [vv])
        return float(ad.sum_(ad.square(gi)).data)

    np.testing.assert_allclose(gg.data, fd_grad(outer, z), rtol=1e-4, atol=1e-8)


def test_hessian_vector_product_through_sqrt_matches_fd_of_gradient():
    x = RNG.normal(size=(5,))
    vec = RNG.normal(size=(5,))
    w = RNG.uniform(0.5, 1.5, size=(5,))

    def loss(v):
        return ad.sum_(ad.mul(ad.sqrt(ad.add(ad.square(v), ad.constant(1.0))), ad.constant(w)))

    xv = ad.Var(x)
    (g,) = ad.grad(loss(xv), [xv])
    (hv,) = ad.grad(ad.dot(g, ad.constant(vec)), [xv])

    h = 1e-5
    gp = engine_grad(loss, x + h * vec)
    gm = engine_grad(loss, x - h * vec)
    np.testing.assert_allclose(hv.data, (gp - gm) / (2.0 * h), rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize(
    "op, want",
    [(ad.exp, lambda x: 2.0 * np.exp(2.0 * x)), (ad.sqrt, lambda x: -0.25 / x**2)],
)
def test_second_order_reaches_an_output_held_only_by_the_graph(op, want):
    # no name holds op's output: the loss holds it for the first pass, and
    # the first-order adjoint, which reuses it, for the second
    x = np.array([0.7, 1.9])
    xv = ad.Var(x)
    loss = ad.sum_(op(xv))
    (g,) = ad.grad(loss, [xv])
    del loss
    (gg,) = ad.grad(ad.sum_(ad.square(g)), [xv])
    np.testing.assert_allclose(gg.data, want(x), rtol=1e-12)


# -- bookkeeping ---------------------------------------------------------------


@pytest.mark.parametrize("op", [ad.exp, ad.sqrt])
def test_graph_dies_with_its_last_outside_reference(op):
    # reference counting alone frees the graph: no node is part of a cycle
    gc.collect()
    gc.disable()
    try:
        xv = ad.Var(np.array([0.7, 1.9]))
        out = op(xv)
        loss = ad.sum_(ad.square(out))
        (g,) = ad.grad(loss, [xv])
        (gg,) = ad.grad(ad.sum_(g), [xv])
        alive = weakref.ref(out)
        del out, loss, g, gg
        assert alive() is None
    finally:
        gc.enable()


def test_grad_zero_for_unreached_variable():
    x = ad.Var(np.ones((2, 2)))
    y = ad.Var(np.ones(3))
    (gy,) = ad.grad(ad.sum_(ad.square(x)), [y])
    np.testing.assert_array_equal(gy.data, np.zeros(3))


def test_grad_requires_scalar_output():
    x = ad.Var(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        ad.grad(ad.square(x), [x])


def test_shared_subexpression_accumulates_once_per_path():
    x = ad.Var(np.array(3.0))
    y = ad.square(x)
    out = ad.add(y, y)  # 2 x^2 -> 4 x
    (g,) = ad.grad(out, [x])
    assert g.data == pytest.approx(12.0)


def test_inputs_never_mutated():
    x = np.array([1.0, 2.0, 3.0])
    snap = x.copy()
    v = ad.Var(x)
    ad.grad(ad.sum_(ad.exp(ad.square(v))), [v])
    np.testing.assert_array_equal(x, snap)


def test_conversion_escapes_raise():
    v = ad.Var(np.array(1.0))
    with pytest.raises(CapabilityError):
        float(v)
    with pytest.raises(CapabilityError):
        bool(v)
    with pytest.raises(CapabilityError):
        np.exp(v)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_grad_of_linear_form_is_coefficient(rows, cols, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(rows, cols))
    x = rng.normal(size=(rows, cols))
    g = engine_grad(lambda v: ad.dot(v, ad.constant(c)), x)
    np.testing.assert_allclose(g, c, rtol=1e-12, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_grad_is_linear_in_upstream_objective(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 1.5, size=(3,))
    xv = ad.Var(x)
    f1 = ad.sum_(ad.exp(xv))
    f2 = ad.sum_(ad.square(xv))
    (g_sum,) = ad.grad(ad.add(f1, f2), [xv])
    (g1,) = ad.grad(f1, [xv])
    (g2,) = ad.grad(f2, [xv])
    np.testing.assert_allclose(g_sum.data, g1.data + g2.data, rtol=1e-12)


# -- pruned reverse pass against the full one ------------------------------------


def reference_grad(output, wrt):
    """The reverse pass without pruning: a VJP for every reachable node."""
    output = ad.as_var(output)
    adjoints = {id(output): ad.constant(np.ones_like(output.data))}
    for node in reversed(ad._topo_order(output)):
        g = adjoints.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            prev = adjoints.get(id(parent))
            adjoints[id(parent)] = contrib if prev is None else ad.add(prev, contrib)
    out = []
    for w in wrt:
        a = adjoints.get(id(w))
        out.append(a if a is not None else ad.constant(np.zeros_like(w.data)))
    return out


def _bounded(v):
    """Rescale by a constant so that repeated exp/matmul never overflow."""
    peak = float(np.max(np.abs(v.data)))
    return ad.mul(v, ad.constant(2.0 / peak)) if peak > 2.0 else v


def random_dag(rng, steps):
    """Leaves, constants and a random mix of primitives over shared nodes.

    Returns (pool, output, unreachable): every node built, a scalar over a
    random subset of them, and a leaf plus an interior node that the output
    does not depend on.
    """
    pool = [ad.Var(rng.normal(size=(3, 4))), ad.Var(rng.normal(size=(4, 3)))]
    pool += [ad.constant(rng.normal(size=(3, 4))), ad.constant(rng.normal(size=(4, 3)))]
    for _ in range(steps):
        a = pool[rng.integers(len(pool))]
        b = pool[rng.integers(len(pool))]
        rows, cols = a.shape
        op = rng.integers(11)
        if op == 0 and b.shape[0] == cols:
            node = ad.matmul(a, b)
        elif op == 0 or op == 1:
            node = ad.transpose(a)
        elif op == 2:
            node = ad.reshape(a, (cols, rows))
        elif op == 3:
            node = ad.sum_(a, axis=int(rng.integers(2)), keepdims=True)
        elif op == 4:
            node = ad.mul(a, b) if b.shape == a.shape else ad.mul(a, a)
        elif op == 5:
            den = b if b.shape == a.shape else a
            node = ad.div(a, ad.add(ad.mul(den, den), ad.constant(1.0)))
        elif op == 6:
            node = ad.exp(a)
        elif op == 7:
            node = ad.logsumexp_rows(a)
        elif op == 8 and rows > 1:
            node = ad.slice_(a, (slice(1, None), slice(None)))
        elif op == 9 and b.shape == a.shape:
            node = ad.sub(a, b)
        else:
            node = ad.add(a, ad.constant(rng.normal(size=a.shape)))
        pool.append(_bounded(node))
    picks = rng.choice(len(pool), size=min(len(pool), 4), replace=False)
    terms = [ad.dot(pool[i], ad.constant(rng.normal(size=pool[i].shape))) for i in picks]
    output = terms[0]
    for t in terms[1:]:
        output = ad.add(output, t)
    stray = ad.Var(rng.normal(size=(2, 2)))
    unreachable = [stray, ad.exp(ad.matmul(stray, stray))]
    return pool, output, unreachable


def _pick_wrt(rng, pool, unreachable):
    chosen = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, 5)), replace=True)]
    chosen += [unreachable[i] for i in range(2) if rng.random() < 0.5]
    return [chosen[i] for i in rng.permutation(len(chosen))]


def _second_order_scalar(grads, rng):
    total = ad.constant(0.0)
    for g in grads:
        total = ad.add(total, ad.dot(ad.mul(g, g), ad.constant(rng.normal(size=g.shape))))
    return total


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), steps=st.integers(1, 14))
def test_pruned_grad_bitwise_equals_full_reverse_pass(seed, steps):
    rng = np.random.default_rng(seed)
    pool, output, unreachable = random_dag(rng, steps)
    wrt = _pick_wrt(rng, pool, unreachable)
    wrt2 = _pick_wrt(rng, pool, unreachable)
    second_seed = int(rng.integers(2**31))

    got = ad.grad(output, wrt)
    want = reference_grad(output, wrt)
    _assert_bitwise(got, want)

    s_got = _second_order_scalar(got, np.random.default_rng(second_seed))
    s_want = _second_order_scalar(want, np.random.default_rng(second_seed))
    assert s_got.data.tobytes() == s_want.data.tobytes()
    _assert_bitwise(ad.grad(s_got, wrt2), reference_grad(s_want, wrt2))


def test_grad_never_calls_vjp_into_a_node_off_the_path_to_wrt():
    def boom(g):
        raise AssertionError("VJP into a constant was evaluated")

    x = ad.Var(np.array([1.0, 2.0]))
    c = ad.constant(np.array([3.0, 4.0]))
    node = ad.Var(x.data * c.data, parents=((c, boom), (x, lambda g: ad.mul(g, c))))
    (gx,) = ad.grad(ad.sum_(node), [x])
    np.testing.assert_array_equal(gx.data, c.data)
    with pytest.raises(AssertionError):
        ad.grad(ad.sum_(node), [c])


def test_transpose_of_transpose_reuses_contiguous_buffer():
    w = ad.Var(RNG.normal(size=(3, 5)))
    assert ad.transpose(ad.transpose(w)).data is w.data

    f = ad.Var(np.asfortranarray(RNG.normal(size=(3, 5))))
    tt = ad.transpose(ad.transpose(f))
    assert tt.data is not f.data
    assert not np.shares_memory(tt.data, f.data)
    assert tt.data.flags.c_contiguous
    np.testing.assert_array_equal(tt.data, f.data)
