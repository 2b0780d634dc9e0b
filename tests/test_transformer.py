"""Attention stack: hand-evaluated oracles, gate arithmetic, equivariance,
and gradient checks on small instances."""
import numpy as np
import pytest

from dstrack import nn
from dstrack.config import EngineConfig
from dstrack.transformer import TrackingModel, aggregate, dual_source, fuse


def tiny_cfg(**kw):
    base = dict(d=8, d_e=8, keypoint_count=4, oks_kappas=(0.1,) * 4,
                ffn_hidden=16, crop_height=16, crop_width=8)
    base.update(kw)
    return EngineConfig(**base)


def model(seed=0, **kw):
    return TrackingModel(tiny_cfg(**kw), seed=seed)


def rnd(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).standard_normal(shape) * scale


# ---------------------------------------------------------------------------
# dual-source attention core

def test_alpha_endpoints_are_bitwise_exact():
    rng = np.random.default_rng(0)
    e_t, e_d = nn.Tensor(rng.standard_normal((3, 4))), nn.Tensor(rng.standard_normal((2, 4)))
    o_edge = nn.Tensor(rng.standard_normal((3, 2)))
    wq, wk = nn.Tensor(rng.standard_normal((4, 4))), nn.Tensor(rng.standard_normal((4, 4)))

    b1 = dual_source(e_t, e_d, o_edge, 1.0, wq, wk)
    assert (b1.fused.data == b1.s_appear.data).all()
    b0 = dual_source(e_t, e_d, o_edge, 0.0, wq, wk)
    assert (b0.fused.data == b0.s_edge.data).all()


def test_gate_is_exact_blend():
    rng = np.random.default_rng(1)
    e_t, e_d = nn.Tensor(rng.standard_normal((3, 4))), nn.Tensor(rng.standard_normal((2, 4)))
    o_edge = nn.Tensor(rng.standard_normal((3, 2)))
    ws = [nn.Tensor(rng.standard_normal((4, 4))) for _ in range(2)]
    alpha = 0.3
    b = dual_source(e_t, e_d, o_edge, alpha, *ws)
    expect = b.s_appear.data * alpha + b.s_edge.data * (1.0 - alpha)
    assert (b.fused.data == expect).all()  # same arithmetic path, bit-identical
    np.testing.assert_allclose(b.fused.data.sum(axis=1), np.ones(3), atol=1e-6)
    np.testing.assert_allclose(b.s_appear.data.sum(axis=1), np.ones(3), atol=1e-6)
    np.testing.assert_allclose(b.s_edge.data.sum(axis=1), np.ones(3), atol=1e-6)


def test_attention_no_detections():
    rng = np.random.default_rng(2)
    e_t = nn.Tensor(rng.standard_normal((3, 4)))
    e_d = nn.Tensor(np.zeros((0, 4)))
    o_edge = nn.Tensor(np.zeros((3, 0)))
    wq, wk, wa = [nn.Tensor(rng.standard_normal(s)) for s in [(4, 4), (4, 4), (4, 4)]]
    b = dual_source(e_t, e_d, o_edge, 0.3, wq, wk)
    delta = aggregate(b.fused, e_d, wa)
    np.testing.assert_array_equal(b.fused.data, np.ones((3, 1)))
    np.testing.assert_array_equal(delta.data, np.zeros((3, 4)))


def test_attention_hand_chain_t1_d2():
    # d = 2 so every step is small enough to write out longhand
    e_t = np.array([[1.0, 0.0]])
    e_d = np.array([[1.0, 1.0], [0.0, 2.0]])
    e_edge = np.array([[[0.5, 0.5], [2.0, -1.0]]])     # 1 x 2 x 2
    wq = np.array([[1.0, 0.0], [0.0, 1.0]])
    wk = np.array([[0.0, 1.0], [1.0, 0.0]])            # swaps coordinates
    we = np.array([[1.0, 2.0]])
    wa = np.array([[2.0, 0.0], [0.0, 1.0]])
    alpha = 0.25

    # appearance: q = [1,0]; k rows = [(1,1)->(1,1)] wait: k_i = W_k e_di
    # linear(e_d, wk) = e_d @ wk.T; wk.T = [[0,1],[1,0]] so k = [[1,1],[2,0]]
    # o_a = q @ k.T / sqrt(2) = [1*1+0*1, 1*2+0*0]/1.414 = [0.7071, 1.4142]
    o_a = np.array([1.0, 2.0]) / np.sqrt(2.0)
    # edge logits, the edge embeddings read out through we:
    # [0.5*1+0.5*2, 2*1+(-1)*2] = [1.5, 0.0]
    o_e = np.array([1.5, 0.0])
    s_a = np.exp(np.append(o_a, 0.0)); s_a /= s_a.sum()
    s_e = np.exp(np.append(o_e, 0.0)); s_e /= s_e.sum()
    fused = alpha * s_a + (1 - alpha) * s_e
    expect_delta = (fused[:2] @ e_d) @ wa.T

    o_edge = nn.Tensor(e_edge @ we[0])
    b = dual_source(nn.Tensor(e_t), nn.Tensor(e_d), o_edge, alpha, nn.Tensor(wq), nn.Tensor(wk))
    delta = aggregate(b.fused, nn.Tensor(e_d), nn.Tensor(wa))
    np.testing.assert_allclose(b.o_appear.data[0], o_a, rtol=1e-12)
    np.testing.assert_allclose(b.o_edge.data[0], o_e, rtol=1e-12)
    np.testing.assert_allclose(delta.data[0], expect_delta, rtol=1e-12)


def test_one_hot_attention_copies_detection():
    # concentrate all weight on detection 1 via huge logit margins; wa = I
    e_t = nn.Tensor(np.array([[30.0, 0.0]]))
    e_d = nn.Tensor(np.array([[0.0, 0.1], [1.0, 0.0]]))   # det 1 aligns with track
    o_edge = nn.Tensor(np.zeros((1, 2)))
    eye = nn.Tensor(np.eye(2))
    b = dual_source(e_t, e_d, o_edge, 1.0, eye, eye)
    delta = aggregate(b.fused, e_d, eye)
    assert b.fused.data[0, 1] > 0.999999
    np.testing.assert_allclose(delta.data[0], e_d.data[1], atol=1e-5)


def test_edge_logit_sensitive_to_raw_features():
    # strict monotonicity under constructed weights is covered in
    # test_heuristics; here we only require the edge logit reacts at all
    m = model()
    s = m.store

    def logit(feat):
        hidden = m.edge_head(np.asarray(feat).reshape(1, 1, 4))
        return float(nn.linear(hidden, s["edge_head.w3"], s["edge_head.b3"]).data[0, 0, 0])

    assert logit([0.2, 0.2, 0.2, 0.2]) != logit([0.2, 0.9, 0.2, 0.2])


@pytest.mark.parametrize("n_stages", [1, 2, 3])
def test_every_edge_output_layer_is_one_row(n_stages):
    # the edge head and each decoder edge refresh end in a single row, no
    # separate readout parameter sits after them, and d_e (not ffn_hidden)
    # is the width of the whole edge path
    m = model(n_decoder_stages=n_stages, d_e=4, ffn_hidden=16)
    s = m.store
    assert not [name for name, _ in s.items() if name.endswith(".we")]
    assert s["edge_head.w3"].data.shape == (1, 4)
    assert s["edge_head.b3"].data.shape == (1,)
    for n in range(n_stages):
        p = f"decoder.stage{n}.ffn_e"
        assert s[f"{p}.w1"].data.shape == (4, 1)
        assert s[f"{p}.b1"].data.shape == (4,)
        assert s[f"{p}.w2"].data.shape == (1, 4)
        assert s[f"{p}.b2"].data.shape == (1,)
    # the last stage's logits feed the matching layer directly
    raw = np.random.default_rng(44).uniform(size=(2, 3, 4))
    out = m.forward_frame(rnd((2, 8), 45), raw, rnd((3, 8), 46))
    assert out.match.fused.data.shape == (3, 3)
    assert len(out.bundles) == n_stages


# ---------------------------------------------------------------------------
# encoder

def test_encoder_empty_input():
    m = model()
    out, attn = m.encoder_forward(np.zeros((0, 8)))
    assert out.data.shape == (0, 8)
    assert len(attn) == 2


def test_encoder_permutation_equivariance():
    m = model(seed=4)
    x = rnd((5, 8), seed=5)
    perm = np.array([3, 1, 4, 0, 2])
    out, _ = m.encoder_forward(x)
    out_p, _ = m.encoder_forward(x[perm])
    np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-10)


def test_encoder_single_detection_scalar_recomputation():
    m = model(seed=6)
    x = rnd((1, 8), seed=7)
    out, attn = m.encoder_forward(x)
    s = m.store
    h = x.copy()
    for n in range(2):
        q = h @ s[f"encoder.stage{n}.wq"].data.T
        k = h @ s[f"encoder.stage{n}.wk"].data.T
        logit = (q @ k.T)[0, 0] / np.sqrt(8.0)
        p = np.exp(logit) / (np.exp(logit) + 1.0)
        np.testing.assert_allclose(attn[n].data, [[p, 1.0 - p]], rtol=1e-10)
        delta = (p * h) @ s[f"encoder.stage{n}.wa"].data.T

        def ln(v, g, b):
            mu, sd = v.mean(), v.std()
            return ((v - mu) / np.sqrt(sd**2 + 1e-5)) * g + b

        h1 = ln(h + delta, s[f"encoder.stage{n}.ln1.g"].data, s[f"encoder.stage{n}.ln1.b"].data)
        w1, b1 = s[f"encoder.stage{n}.ffn.w1"].data, s[f"encoder.stage{n}.ffn.b1"].data
        w2, b2 = s[f"encoder.stage{n}.ffn.w2"].data, s[f"encoder.stage{n}.ffn.b2"].data
        from scipy.special import erf
        gelu = lambda z: 0.5 * z * (1 + erf(z / np.sqrt(2)))
        ffn = gelu(h1 @ w1.T + b1) @ w2.T + b2
        h = ln(h1 + ffn, s[f"encoder.stage{n}.ln2.g"].data, s[f"encoder.stage{n}.ln2.b"].data)
    np.testing.assert_allclose(out.data, h, atol=1e-8)


# ---------------------------------------------------------------------------
# decoder layer and heads

def test_decoder_layer_zero_weights_degenerate_residual():
    m = model()
    s = m.store
    for n in (0, 1):
        for w in ("wq", "wk", "wa"):
            s[f"decoder.stage{n}.{w}"].data[:] = 0.0
        for w in ("ffn.w1", "ffn.w2"):
            s[f"decoder.stage{n}.{w}"].data[:] = 0.0
    e_t = rnd((2, 8), seed=8)
    o_edge = rnd((2, 3), seed=9)
    e_d = rnd((3, 8), seed=10)
    out, _, _ = m.decoder_forward(e_t, o_edge, e_d)

    def ln(v):
        mu = v.mean(axis=-1, keepdims=True)
        sd = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(sd + 1e-5)

    # zero attention output and zero FFN: each stage is LN(LN(x))
    expect = e_t
    for _ in range(2):
        expect = ln(ln(expect))
    np.testing.assert_allclose(out.data, expect, atol=1e-10)


def test_edge_refresh_shared_ffn_e():
    # identical fused logits at two pairs give identical refreshed edge logits
    m = model(seed=11)
    e_t = np.zeros((2, 8))
    o_edge = np.zeros((2, 2))
    e_d = np.zeros((2, 8))
    _, edge_out, _ = m.decoder_forward(e_t, o_edge, e_d)
    assert edge_out.data.shape == (2, 2)
    flat = edge_out.data.reshape(4)
    np.testing.assert_allclose(flat[1:], np.full(3, flat[0]), atol=1e-12)


def test_heads_have_distinct_parameters():
    for seed in range(5):
        m = model(seed=seed)
        x = rnd((3, 8), seed=seed + 50)
        a = m.track_head(x).data
        b = m.new_track_head(x).data
        assert np.abs(a - b).max() > 1e-6


def test_head_zero_weights_zero_output():
    m = model()
    for h in ("track_head", "new_track_head"):
        m.store[f"{h}.w1"].data[:] = 0.0
        m.store[f"{h}.w2"].data[:] = 0.0
        m.store[f"{h}.b2"].data[:] = 0.0
    x = rnd((2, 8), seed=1)
    assert (m.track_head(x).data == 0).all()
    assert (m.new_track_head(x).data == 0).all()


def test_edge_head_pairwise_independent():
    m = model(seed=16)
    raw = np.zeros((2, 2, 4))
    raw[0, 1] = [0.3, 0.5, 0.2, 0.9]
    raw[1, 0] = [0.3, 0.5, 0.2, 0.9]
    out = m.edge_head(raw).data
    np.testing.assert_allclose(out[0, 1], out[1, 0], atol=1e-12)
    np.testing.assert_allclose(out[0, 0], out[1, 1], atol=1e-12)


# ---------------------------------------------------------------------------
# confidence update

def test_confidence_gate_endpoints():
    m = model(seed=17)
    e_old = rnd((3, 8), seed=18)
    e_new = rnd((3, 8), seed=19)
    fwd = lambda: m.forward_frame(e_old, np.random.default_rng(20).uniform(size=(3, 4, 4)),
                                  rnd((4, 8), seed=21))
    m.store["conf.w"].data[:] = 0.0
    m.store["conf.b"].data[:] = -40.0   # gate -> 0: keep old embedding
    out = fwd()
    np.testing.assert_allclose(out.updated_tracks.data, e_old, atol=1e-12)
    m.store["conf.b"].data[:] = 40.0    # gate -> 1: adopt proposal
    out = fwd()
    np.testing.assert_allclose(out.updated_tracks.data, out.head_out.data, atol=1e-12)


def test_confidence_update_convexity():
    m = model(seed=22)
    e_old = rnd((4, 8), seed=23)
    e_new = rnd((4, 8), seed=24)
    bundles_src = m.forward_frame(e_old, np.random.default_rng(25).uniform(size=(4, 3, 4)),
                                  rnd((3, 8), seed=26))
    blended, gate = m.confidence_update(bundles_src.bundles, nn.Tensor(e_old), nn.Tensor(e_new))
    lo = np.minimum(e_old, e_new)
    hi = np.maximum(e_old, e_new)
    assert (blended.data >= lo - 1e-12).all() and (blended.data <= hi + 1e-12).all()
    assert ((gate >= 0) & (gate <= 1)).all()


# ---------------------------------------------------------------------------
# matching layer

def test_matching_no_tracks():
    m = model()
    out = m.matching_layer(np.zeros((0, 8)), rnd((3, 8), 27), np.zeros((0, 3))).fused
    np.testing.assert_array_equal(out.data, np.ones((3, 1)))


def test_matching_rows_stochastic_and_alpha_one():
    m = model(seed=28)
    e_t, e_d, o_edge = rnd((2, 8), 29), rnd((3, 8), 30), rnd((2, 3), 31)
    out = m.matching_layer(e_t, e_d, o_edge).fused
    assert out.data.shape == (3, 3)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), atol=1e-6)

    m1 = model(seed=28, alpha=1.0)
    out1 = m1.matching_layer(e_t, e_d, o_edge).fused
    s = m1.store
    q = e_d @ s["match.wq"].data.T
    k = e_t @ s["match.wk"].data.T
    o_a = q @ k.T / np.sqrt(8.0)
    aug = np.concatenate([o_a, np.zeros((3, 1))], axis=1)
    ref = np.exp(aug - aug.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out1.data, ref, atol=1e-12)


def test_matching_hand_evaluation_d2_t1():
    alpha = 0.4
    m = model(seed=32, alpha=alpha)
    e_t, e_d, o_edge = rnd((1, 8), 33), rnd((2, 8), 34), rnd((1, 2), 35)
    out = m.matching_layer(e_t, e_d, o_edge).fused.data
    s = m.store
    o_a = (e_d @ s["match.wq"].data.T) @ (e_t @ s["match.wk"].data.T).T / np.sqrt(8.0)
    o_e = o_edge.T

    def smn(x):
        aug = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
        e = np.exp(aug - aug.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    np.testing.assert_allclose(out, alpha * smn(o_a) + (1 - alpha) * smn(o_e), atol=1e-12)


def test_matching_uses_separate_parameters_from_decoder():
    m = model(seed=36)
    # zeroing decoder projections must not change the matching output
    e_t, e_d, o_edge = rnd((2, 8), 37), rnd((2, 8), 38), rnd((2, 2), 39)
    before = m.matching_layer(e_t, e_d, o_edge).fused.data.copy()
    for n in (0, 1):
        for w in ("wq", "wk", "wa"):
            m.store[f"decoder.stage{n}.{w}"].data[:] = 0.0
    after = m.matching_layer(e_t, e_d, o_edge).fused.data
    np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# full-frame pass

def test_forward_frame_shapes_and_detection_permutation():
    m = model(seed=40)
    e_t = rnd((2, 8), 41)
    e_d = rnd((3, 8), 42)
    raw = np.random.default_rng(43).uniform(size=(2, 3, 4))
    out = m.forward_frame(e_t, raw, e_d)
    assert out.match.fused.data.shape == (3, 3)
    assert len(out.bundles) == 2
    assert out.updated_tracks.data.shape == (2, 8)

    perm = np.array([2, 0, 1])
    out_p = m.forward_frame(e_t, raw[:, perm], e_d[perm])
    # track-side outputs unchanged, detection-side rows permuted
    np.testing.assert_allclose(out_p.updated_tracks.data, out.updated_tracks.data, atol=1e-9)
    np.testing.assert_allclose(out_p.match.fused.data[:, :2], out.match.fused.data[perm][:, :2], atol=1e-9)
    np.testing.assert_allclose(out_p.match.fused.data[:, 2], out.match.fused.data[perm][:, 2], atol=1e-9)
    for b, bp in zip(out.bundles, out_p.bundles):
        np.testing.assert_allclose(bp.fused.data[:, :3], b.fused.data[:, perm], atol=1e-9)
        np.testing.assert_allclose(bp.fused.data[:, 3], b.fused.data[:, 3], atol=1e-9)


# ---------------------------------------------------------------------------
# gradient checks on composites

def test_gradcheck_dual_source_attention():
    rng = np.random.default_rng(44)
    inputs = [
        nn.Tensor(rng.standard_normal((2, 4)), requires_grad=True),   # e_t
        nn.Tensor(rng.standard_normal((2, 4)), requires_grad=True),   # e_d
        nn.Tensor(rng.standard_normal((2, 2)), requires_grad=True),   # o_edge
        nn.Tensor(rng.standard_normal((4, 4)), requires_grad=True),
        nn.Tensor(rng.standard_normal((4, 4)), requires_grad=True),
        nn.Tensor(rng.standard_normal((4, 4)), requires_grad=True),
    ]

    def run(e_t, e_d, o_edge, wq, wk, wa):
        bundle = dual_source(e_t, e_d, o_edge, 0.3, wq, wk)
        return nn.concat([aggregate(bundle.fused, e_d, wa), bundle.fused], axis=1)

    err = nn.grad_check(run, inputs, rng=np.random.default_rng(45))
    assert err <= 1e-4, err


def test_gradcheck_full_decoder_layer():
    cfg = tiny_cfg(d=4, d_e=4, ffn_hidden=6)
    m = TrackingModel(cfg, seed=46)
    rng = np.random.default_rng(47)
    e_t = nn.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    o_edge = nn.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    e_d = nn.Tensor(rng.standard_normal((2, 4)), requires_grad=True)

    def run(a, b, c):
        out, edge, _ = m.decoder_layer(a, b, c, stage=0)
        return nn.concat([out, edge], axis=1)

    err = nn.grad_check(run, [e_t, o_edge, e_d], rng=np.random.default_rng(48))
    assert err <= 1e-4, err


def test_gradcheck_heads():
    cfg = tiny_cfg(d=4, d_e=4, ffn_hidden=6)
    m = TrackingModel(cfg, seed=49)
    x = nn.Tensor(np.random.default_rng(50).standard_normal((3, 4)), requires_grad=True)
    err = nn.grad_check(lambda v: m.track_head(v), [x], rng=np.random.default_rng(51))
    assert err <= 1e-4, err
