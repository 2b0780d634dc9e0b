"""Numeric core: forward values against hand-computed references, gradients
against central differences, checkpoint round-trips."""
import ast
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from dstrack import nn
from dstrack.config import EngineConfig
from dstrack.gradsuite import CHECKS, TOL, CheckOutcome, suite_passed
from dstrack.spapde import init_backbone_params


def t(x, grad=True):
    return nn.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward values

def test_linear_hand_product():
    # [1,2] @ [[1,1],[0,1]]^T = [1*1+2*1, 1*0+2*1] = [3, 2]
    y = nn.linear(t([[1.0, 2.0]]), t([[1.0, 1.0], [0.0, 1.0]]))
    np.testing.assert_allclose(y.data, [[3.0, 2.0]], atol=1e-12)


def test_linear_bias_and_shape_error():
    y = nn.linear(t([[1.0, 2.0]]), t([[1.0, 1.0]]), t([0.5]))
    np.testing.assert_allclose(y.data, [[3.5]])
    with pytest.raises(ValueError, match="inner dims"):
        nn.linear(t([[1.0, 2.0, 3.0]]), t([[1.0, 1.0]]))


def test_gelu_reference_value():
    # 0.5 * 2 * (1 + erf(2/sqrt(2))), frozen reference
    y = nn.gelu(t([2.0]))
    np.testing.assert_allclose(y.data, [1.9544997361036416], rtol=1e-12)
    # odd-ish tails: gelu(-10) ~ 0, gelu(10) ~ 10
    z = nn.gelu(t([-10.0, 10.0]))
    np.testing.assert_allclose(z.data, [0.0, 10.0], atol=1e-8)


def test_relu_sigmoid_values():
    np.testing.assert_allclose(nn.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(nn.sigmoid(t([0.0])).data, [0.5])


def test_softmax_null_ln3():
    # single logit ln(3) against the implicit zero: [3/4, 1/4]
    p = nn.softmax_null(t([[np.log(3.0)]]))
    np.testing.assert_allclose(p.data, [[0.75, 0.25]], rtol=1e-12)


def test_softmax_null_rows_sum_to_one():
    rng = np.random.default_rng(7)
    logits = t(rng.standard_normal((5, 4)) * 3.0)
    p = nn.softmax_null(logits)
    assert p.data.shape == (5, 5)
    np.testing.assert_allclose(p.data.sum(axis=1), np.ones(5), atol=1e-12)
    assert (p.data > 0.0).all()


def test_softmax_null_zero_columns():
    # no candidates at all: every row is [1.0]
    p = nn.softmax_null(nn.Tensor(np.zeros((3, 0))))
    np.testing.assert_allclose(p.data, np.ones((3, 1)))


def test_softmax_null_is_shift_invariant_vs_plain_softmax():
    # appending the zero logit and softmaxing must equal softmax over the
    # augmented row computed by hand
    row = np.array([[1.0, -2.0, 0.5]])
    p = nn.softmax_null(nn.Tensor(row)).data
    aug = np.concatenate([row, [[0.0]]], axis=1)
    e = np.exp(aug - aug.max())
    np.testing.assert_allclose(p, e / e.sum(), rtol=1e-12)


def test_layer_norm_zero_mean_unit_var():
    rng = np.random.default_rng(3)
    x = t(rng.standard_normal((4, 8)) * 5.0 + 2.0)
    y = nn.layer_norm(x, np.ones(8), np.zeros(8))
    np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(y.data.var(axis=-1), np.ones(4), atol=1e-4)


def test_layer_norm_affine():
    x = t([[1.0, -1.0, 2.0, -2.0]])
    g = t(np.full(4, 2.0))
    b = t(np.full(4, 0.5))
    y0 = nn.layer_norm(x, np.ones(4), np.zeros(4)).data
    y = nn.layer_norm(x, g, b).data
    np.testing.assert_allclose(y, 2.0 * y0 + 0.5, rtol=1e-12)


def test_conv3x3_matches_naive_loop():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    y = nn.conv3x3(t(x), t(w), t(b)).data

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.zeros((2, 4, 6, 5))
    for n in range(2):
        for o in range(4):
            for i in range(6):
                for j in range(5):
                    acc = b[o]
                    for c in range(3):
                        for dy in range(3):
                            for dx in range(3):
                                acc += w[o, c, dy, dx] * xp[n, c, i + dy, j + dx]
                    ref[n, o, i, j] = acc
    np.testing.assert_allclose(y, ref, atol=1e-10)


def test_conv3x3_unbatched_and_channel_mismatch():
    w, b = t(np.zeros((2, 3, 3, 3))), t(np.zeros(2))
    with pytest.raises(ValueError, match="4-d"):
        nn.conv3x3(t(np.zeros((3, 4, 4))), w, b)
    with pytest.raises(ValueError, match="channels"):
        nn.conv3x3(t(np.zeros((1, 2, 4, 4))), w, b)


def test_conv3x3_backward_matches_naive_loop():
    # C_in != C_out and H != W, so a wrong channel transpose or spatial flip
    # in the input gradient's adjoint cannot cancel out
    rng = np.random.default_rng(5)
    n, c_in, c_out, h, w_ = 2, 2, 3, 5, 4
    x = rng.standard_normal((n, c_in, h, w_))
    w = rng.standard_normal((c_out, c_in, 3, 3))
    b = rng.standard_normal(c_out)
    gy = rng.standard_normal((n, c_out, h, w_))
    tx, tw, tb = t(x), t(w), t(b)
    nn.conv3x3(tx, tw, tb)._backward(gy)

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    for s in range(n):
        for o in range(c_out):
            for i in range(h):
                for j in range(w_):
                    g = gy[s, o, i, j]
                    gb[o] += g
                    for c in range(c_in):
                        for dy in range(3):
                            for dx in range(3):
                                gxp[s, c, i + dy, j + dx] += w[o, c, dy, dx] * g
                                gw[o, c, dy, dx] += xp[s, c, i + dy, j + dx] * g
    gx = gxp[:, :, 1:-1, 1:-1]
    np.testing.assert_allclose(tx.grad, gx, rtol=0, atol=1e-10)
    np.testing.assert_allclose(tw.grad, gw, rtol=0, atol=1e-10)
    np.testing.assert_allclose(tb.grad, gb, rtol=0, atol=1e-10)


def conv3x3_per_tap(x, w, b):
    """Reference: the 3x3 correlation as nine per-tap channel contractions."""
    n, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((n, w.shape[0], h, wd))
    for dy in range(3):
        for dx in range(3):
            y += np.einsum("oi,nihw->nohw", w[:, :, dy, dx], xp[:, :, dy : dy + h, dx : dx + wd])
    return y + b[None, :, None, None]


def backbone_conv_layers():
    """(name, kernel shape, input height, input width) of every conv the
    backbone runs at the default config."""
    cfg = EngineConfig()
    store = nn.ParamStore()
    init_backbone_params(store, cfg, np.random.default_rng(0))
    layers = []
    for name, p in store.items():
        if p.data.ndim == 4:
            scale = 2 ** int(name.split(".")[1].removeprefix("stage"))
            layers.append((name, p.data.shape, cfg.crop_height // scale, cfg.crop_width // scale))
    return layers


BACKBONE_CONV_LAYERS = backbone_conv_layers()


@pytest.mark.parametrize("name, shape, h, w_", BACKBONE_CONV_LAYERS,
                         ids=[layer[0] for layer in BACKBONE_CONV_LAYERS])
def test_conv3x3_forward_matches_per_tap_reference(name, shape, h, w_):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.standard_normal((2, shape[1], h, w_))
    w = rng.standard_normal(shape)
    b = rng.standard_normal(shape[0])
    ref = conv3x3_per_tap(x, w, b)
    # relative to the layer's largest output: the two sum in different
    # orders, so outputs that cancel to near zero differ in more digits
    err = np.abs(nn.conv3x3(t(x), t(w), t(b)).data - ref).max()
    assert err <= 1e-12 * np.abs(ref).max()


def test_conv3x3_backward_closure_holds_only_its_inputs():
    # every conv of a frame stays on the tape until backward runs, so a
    # padded input or patch matrix kept by the closure would be held once
    # per conv for the whole frame
    rng = np.random.default_rng(0)
    x = t(rng.standard_normal((2, 3, 8, 6)))
    w, b = t(rng.standard_normal((4, 3, 3, 3))), t(rng.standard_normal(4))
    out = nn.conv3x3(x, w, b)
    allowed = (x, w, b)
    for cell in out._backward.__closure__:
        held = cell.cell_contents
        if isinstance(held, nn.Tensor):
            assert any(held is a for a in allowed)
        elif isinstance(held, np.ndarray):
            assert any(held is a.data for a in allowed)
        else:
            assert isinstance(held, (bool, int, float, type(None))), type(held)


def test_avg_pool2_value():
    x = t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    y = nn.avg_pool2(x)
    np.testing.assert_allclose(y.data, [[[[2.5, 4.5], [10.5, 12.5]]]])
    with pytest.raises(ValueError, match="even"):
        nn.avg_pool2(t(np.zeros((1, 1, 3, 4))))


def spread_values(seed, shape, decades, zero_frac, strided):
    """Normal draws times 10**k, k uniform in the range decades, a share of
    them set to zeros of either sign; strided gives a view that takes every
    other element of the last axis, as a sliced gradient would."""
    rng = np.random.default_rng(seed)
    full = shape[:-1] + (2 * shape[-1],) if strided else shape
    x = rng.standard_normal(full) * 10.0 ** rng.integers(*decades, full)
    zeros = rng.random(full) < zero_frac
    x[zeros] = np.copysign(0.0, x[zeros])
    return x[..., ::2] if strided else x


def same_bits(a, b):
    """Equal shapes and bit patterns, so 0.0 and -0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def patch_cols_reference(xd):
    """Patch columns as np.pad and a transposed copy of a sliding-window
    view build them."""
    n, c, h, w = xd.shape
    xp = np.pad(xd, ((0, 0), (0, 0), (1, 1), (1, 1)))
    patches = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (N, C, H, W, 3, 3)
    return patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, h * w)


bit_identity = settings(max_examples=150, deadline=None, derandomize=True, database=None)
batch, channels = st.integers(1, 3), st.integers(1, 17)
even_side = st.integers(1, 8).map(lambda k: 2 * k)
# a few decades make sums round differently in each order; -320 reaches
# subnormals
value_draws = dict(seed=st.integers(0, 2**32 - 1),
                   decades=st.sampled_from(((-3, 4), (-320, 301))),
                   zero_frac=st.sampled_from((0.0, 0.2, 0.9)), strided=st.booleans())


@bit_identity
@given(n=batch, c=channels, h=st.integers(1, 9), w=st.integers(1, 9), **value_draws)
def test_patch_cols_equal_the_window_view_reference(n, c, h, w, seed, decades, zero_frac, strided):
    x = spread_values(seed, (n, c, h, w), decades, zero_frac, strided)
    assert same_bits(nn._patch_cols(x), patch_cols_reference(x))


@bit_identity
@given(n=batch, c=channels, h=even_side, w=even_side, **value_draws)
def test_avg_pool2_forward_equals_block_mean(n, c, h, w, seed, decades, zero_frac, strided):
    x = spread_values(seed, (n, c, h, w), decades, zero_frac, strided)
    ref = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    assert same_bits(nn.avg_pool2(t(x)).data, ref)


@bit_identity
@given(n=batch, c=channels, h=even_side, w=even_side, **value_draws)
def test_avg_pool2_backward_equals_repeat(n, c, h, w, seed, decades, zero_frac, strided):
    x = t(np.zeros((n, c, h, w)))
    g = spread_values(seed, (n, c, h // 2, w // 2), decades, zero_frac, strided)
    nn.avg_pool2(x)._backward(g)
    assert same_bits(x.grad, np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)


def test_reduce_max_routes_gradient_to_argmax():
    x = t([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
    y = nn.reduce_max(x, axis=1)
    nn.reduce_sum(y).backward()
    np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_concat_and_getitem_gradients():
    a, b = t([1.0, 2.0]), t([3.0])
    c = nn.concat([a, b])
    nn.reduce_sum(nn.take(c, slice(1, None))).backward()
    np.testing.assert_allclose(a.grad, [0.0, 1.0])
    np.testing.assert_allclose(b.grad, [1.0])


def test_add_broadcast_gradient():
    a = t(np.ones((3, 4)))
    b = t(np.ones(4))
    nn.reduce_sum(nn.add(a, b)).backward()
    np.testing.assert_allclose(b.grad, [3.0, 3.0, 3.0, 3.0])


def test_graph_reuse_accumulates():
    # y = x*x + x: dy/dx = 2x + 1
    x = t([3.0])
    y = nn.add(nn.mul(x, x), x)
    y.backward()
    np.testing.assert_allclose(x.grad, [7.0])


# ---------------------------------------------------------------------------
# tape and op internals, pinned byte for byte against their plain forms: the
# order in which the tape sums gradients and the rounding of every op fix the
# loss curve and the trained weights

def _push_all_parents_order(root):
    """Post-order of the depth-first walk that pushes every unseen parent,
    over all nodes, kept to those that need a gradient."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return [node for node in order if node.requires_grad]


def _random_dag(rng):
    """Leaves with and without requires_grad, then inner nodes over 1-3
    earlier nodes: parents repeat (like mul(a, a)) and are shared, and
    subtrees over no-grad leaves need no gradient."""
    nodes = [nn.Tensor(0.0, requires_grad=bool(rng.uniform() < 0.4))
             for _ in range(int(rng.integers(1, 6)))]
    for _ in range(int(rng.integers(1, 25))):
        picks = rng.integers(0, len(nodes), size=int(rng.integers(1, 4)))
        nodes.append(nn.Tensor(0.0, parents=[nodes[i] for i in picks]))
    return nodes


def test_topo_order_matches_push_all_parents_walk():
    rng = np.random.default_rng(11)
    roots_without_grad = 0
    for _ in range(400):
        nodes = _random_dag(rng)
        for root in nodes[-3:] + [nodes[int(rng.integers(len(nodes)))]]:
            roots_without_grad += not root.requires_grad
            assert [id(n) for n in nn._topo_order(root)] == \
                [id(n) for n in _push_all_parents_order(root)]
    assert roots_without_grad > 0


def test_topo_order_on_ops():
    a, c = t([1.0, 2.0]), t([3.0, 4.0], grad=False)
    shared = nn.mul(a, a)
    no_grad = nn.mul(c, c)
    root = nn.add(nn.add(shared, nn.mul(no_grad, shared)), a)
    assert [id(n) for n in nn._topo_order(root)] == \
        [id(n) for n in _push_all_parents_order(root)]
    assert no_grad not in nn._topo_order(root)
    assert nn._topo_order(no_grad) == []


def test_first_accumulate_copies_in_the_layout_of_data():
    # a gradient kept in g's own order would round differently in a later
    # matmul or row sum than the zeros_like(data) + g the tape used to build
    rng = np.random.default_rng(12)
    x = t(np.zeros((3, 4)))
    g = rng.standard_normal((4, 3)).T
    x.accumulate(g)
    assert x.grad.flags.c_contiguous
    assert not np.shares_memory(x.grad, g)
    assert np.array_equal(x.grad, np.zeros((3, 4)) + g)
    g2 = rng.standard_normal((3, 4))
    x.accumulate(g2)
    assert np.array_equal(x.grad, np.zeros((3, 4)) + g + g2)

    xt = nn.transpose(t(np.zeros((4, 3))))
    xt.accumulate(g2)
    assert xt.grad.flags.f_contiguous and not xt.grad.flags.c_contiguous
    assert np.array_equal(xt.grad, np.zeros_like(xt.data) + g2)


@pytest.mark.parametrize("shape", [(6, 9), (2, 5, 7), "transposed"])
@pytest.mark.parametrize("affine", [True, False])
def test_layer_norm_matches_mean_var_reference(shape, affine):
    # affine=False: unit gain and zero bias, which leave xhat and the
    # output gradient bit for bit as they are
    rng = np.random.default_rng(13)
    xd = (rng.standard_normal((9, 6)).T if shape == "transposed"
          else rng.standard_normal(shape)) * 3.0 + 1.5
    n = xd.shape[-1]
    gain, bias = rng.standard_normal(n), rng.standard_normal(n)
    g = rng.standard_normal(xd.shape)
    x = t(xd)
    y = (nn.layer_norm(x, t(gain), t(bias)) if affine
         else nn.layer_norm(x, t(np.ones(n)), t(np.zeros(n))))
    y.backward(g)

    mu = xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(xd.var(axis=-1, keepdims=True) + nn.LN_EPS)
    xhat = (xd - mu) * inv
    gl = np.zeros_like(y.data)  # the output gradient as the tape lays it out
    gl += g
    gy = gl * gain if affine else gl
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * xhat).mean(axis=-1, keepdims=True)
    assert np.array_equal(y.data, xhat * gain + bias if affine else xhat)
    assert np.array_equal(x.grad, inv * (gy - m1 - xhat * m2))


def test_gelu_matches_erf_reference():
    rng = np.random.default_rng(14)
    z = rng.standard_normal((40, 50)) * 3.0
    g = rng.standard_normal(z.shape)
    x = t(z)
    y = nn.gelu(x)
    y.backward(g)
    cdf = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    pdf = 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z)
    assert np.array_equal(y.data, 0.5 * z * (1.0 + erf(z / np.sqrt(2.0))))
    assert np.array_equal(x.grad, g * (cdf + z * pdf))


# ---------------------------------------------------------------------------
# gradient checks per op

def test_gradsuite_covers_every_op_the_engine_calls():
    """Every nn.<name> the package uses outside nn.py and gradsuite.py is
    either plumbing or named by an "op ..." check of the gradcheck suite."""
    plumbing = {"Tensor", "ParamStore", "as_tensor", "load_checkpoint", "save_checkpoint"}
    used = set()
    for path in Path(nn.__file__).parent.glob("*.py"):
        if path.name in ("nn.py", "gradsuite.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "nn":
                used.add(node.attr)
    checked = {op for name, _ in CHECKS if name.startswith("op ")
               for op in name.split()[1].split("+")}
    assert used - plumbing - checked == set()


def test_suite_passed_needs_a_check_that_ran():
    assert not suite_passed([])
    assert suite_passed([CheckOutcome("op add", 0, 0.0)])
    assert not suite_passed([CheckOutcome("op add", 0, 0.0),
                             CheckOutcome("op mul", 0, 2 * TOL)])


def _check(fn, *arrays, seed=0, tol=1e-4):
    inputs = [t(a) for a in arrays]
    err = nn.grad_check(fn, inputs, rng=np.random.default_rng(seed))
    assert err <= tol, f"max rel error {err:.3e}"


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_elementwise_ops(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    _check(nn.gelu, x, seed=seed)
    _check(nn.sigmoid, x, seed=seed)
    _check(nn.log, np.abs(x) + 0.5, seed=seed)
    _check(nn.sqrt, np.abs(x) + 0.5, seed=seed)
    # keep relu probes away from the kink
    xr = x + np.sign(x) * 0.1
    _check(nn.relu, xr, seed=seed)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_matmul_linear(seed):
    rng = np.random.default_rng(seed)
    _check(nn.matmul, rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), seed=seed)
    _check(
        nn.linear,
        rng.standard_normal((3, 4)),
        rng.standard_normal((5, 4)),
        rng.standard_normal(5),
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_softmax_null(seed):
    rng = np.random.default_rng(seed)
    _check(nn.softmax_null, rng.standard_normal((4, 3)), seed=seed)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_layer_norm(seed):
    rng = np.random.default_rng(seed)
    _check(
        nn.layer_norm,
        rng.standard_normal((3, 6)),
        rng.standard_normal(6),
        rng.standard_normal(6),
        seed=seed,
    )


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_conv_and_pool(seed):
    rng = np.random.default_rng(seed)
    _check(
        nn.conv3x3,
        rng.standard_normal((2, 2, 4, 4)),
        rng.standard_normal((3, 2, 3, 3)),
        rng.standard_normal(3),
        seed=seed,
    )
    _check(nn.avg_pool2, rng.standard_normal((1, 2, 4, 4)), seed=seed)


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_ffn(seed):
    rng = np.random.default_rng(seed)
    _check(
        nn.ffn,
        rng.standard_normal((2, 3)),
        rng.standard_normal((5, 3)),
        rng.standard_normal(5),
        rng.standard_normal((3, 5)),
        rng.standard_normal(3),
        seed=seed,
    )


def test_gradcheck_reductions():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4))
    _check(lambda a: nn.reduce_sum(a, axis=1), x)
    _check(lambda a: nn.reduce_mean(a, axis=0), x)
    _check(lambda a: nn.reduce_max(a, axis=1), x)
    _check(lambda a: nn.reshape(a, (4, 3)), x)


# ---------------------------------------------------------------------------
# parameter store and checkpoints

def test_param_store_init_bounds_and_duplicates():
    store = nn.ParamStore()
    rng = np.random.default_rng(0)
    w = store.create("w", (64, 16), rng)
    assert np.abs(w.data).max() <= 1.0 / 4.0  # fan_in 16
    store.create("z", (3,), rng, init="zeros")
    assert np.all(store["z"].data == 0.0)
    with pytest.raises(ValueError, match="duplicate"):
        store.create("w", (2, 2), rng)


def test_checkpoint_roundtrip(tmp_path):
    store = nn.ParamStore()
    rng = np.random.default_rng(1)
    store.create("a", (3, 4), rng)
    store.create("b", (5,), rng)
    path = tmp_path / "weights.bin"
    nn.save_checkpoint(path, store.state_dict())

    fresh = nn.ParamStore()
    rng2 = np.random.default_rng(99)
    fresh.create("a", (3, 4), rng2)
    fresh.create("b", (5,), rng2)
    fresh.load_state(nn.load_checkpoint(path))
    for name in ("a", "b"):
        np.testing.assert_allclose(
            fresh[name].data, store[name].data.astype(np.float32), rtol=1e-7
        )


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"nope" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        nn.load_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    store = nn.ParamStore()
    store.create("a", (2, 2), np.random.default_rng(0))
    path = tmp_path / "w.bin"
    nn.save_checkpoint(path, store.state_dict())
    other = nn.ParamStore()
    other.create("a", (3, 3), np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape mismatch"):
        other.load_state(nn.load_checkpoint(path))


def test_zero_grad():
    store = nn.ParamStore()
    w = store.create("w", (2, 2), np.random.default_rng(0))
    nn.reduce_sum(nn.mul(w, w)).backward()
    assert w.grad is not None
    store.zero_grad()
    assert w.grad is None
