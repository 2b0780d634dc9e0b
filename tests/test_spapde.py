import numpy as np
import pytest

from dstrack import nn
from dstrack.config import EngineConfig
from dstrack.datatypes import Pose
from dstrack.spapde import (
    appearance_embed_batch,
    init_backbone_params,
    init_spapde_params,
    render_heatmaps,
    spapde_forward,
    spapde_modulation,
)


def small_cfg(**kw):
    base = dict(d=8, keypoint_count=4, oks_kappas=(0.1,) * 4,
                crop_height=16, crop_width=8, ffn_hidden=16)
    base.update(kw)
    return EngineConfig(**base)


def pose_in_crop(coords, visible=None):
    coords = np.asarray(coords, dtype=np.float64)
    k = coords.shape[0]
    vis = np.ones(k, bool) if visible is None else np.asarray(visible, bool)
    return Pose(coords=coords, conf=np.ones(k), visible=vis)


# ---------------------------------------------------------------------------
# heatmap rendering

def test_render_peak_at_keypoint():
    pose = pose_in_crop([[3, 5], [0, 0], [7, 2], [4, 9]])
    h = render_heatmaps(pose, height=12, width=8, kernel_width=2.0)
    assert h.shape == (4, 12, 8)
    assert h[0, 5, 3] == pytest.approx(1.0)
    assert h[1, 0, 0] == pytest.approx(1.0)
    assert h.max() <= 1.0


def test_render_invisible_keypoints_zero():
    pose = pose_in_crop([[3, 5], [1, 1], [2, 2], [4, 4]],
                        visible=[False, True, False, False])
    pose = Pose(coords=pose.coords, conf=np.zeros(4), visible=pose.visible)
    h = render_heatmaps(pose, 12, 8, 2.0)
    assert (h[0] == 0).all() and (h[2] == 0).all() and (h[3] == 0).all()
    assert h[1].max() == pytest.approx(1.0)


def test_render_value_at_one_sigma():
    pose = pose_in_crop([[4.0, 6.0]] + [[0, 0]] * 3,
                        visible=[True, False, False, False])
    pose = Pose(coords=pose.coords, conf=[1.0, 0.0, 0.0, 0.0], visible=pose.visible)
    sigma = 3.0
    h = render_heatmaps(pose, 16, 8, sigma)
    # pixel exactly sigma away in y
    assert h[0, 9, 4] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_render_monotone_in_distance():
    pose = pose_in_crop([[4, 8], [0, 0], [0, 0], [0, 0]],
                        visible=[True, False, False, False])
    pose = Pose(coords=pose.coords, conf=[1, 0, 0, 0], visible=pose.visible)
    h = render_heatmaps(pose, 16, 8, 2.5)[0]
    col = h[:, 4]
    assert (np.diff(col[8:]) < 0).all()  # moving away from the peak, values drop
    assert (np.diff(col[:9]) > 0).all()


def render_heatmaps_loop(pose, height, width, kernel_width):
    """Reference: one Gaussian channel at a time, skipping hidden keypoints."""
    out = np.zeros((pose.keypoint_count, height, width))
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    two_s2 = 2.0 * kernel_width * kernel_width
    mask = pose.visibility_mask()
    for i in range(pose.keypoint_count):
        if mask[i]:
            x0, y0 = pose.coords[i]
            out[i] = np.exp(-((xs - x0) ** 2 + (ys - y0) ** 2) / two_s2)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_render_equals_per_keypoint_loop(seed):
    rng = np.random.default_rng(seed)
    for k in (1, 4, 17):
        for _ in range(10):
            # most keypoints land off the 16x8 crop, on every side; a quarter are hidden
            coords = rng.uniform([-12.0, -20.0], [20.0, 36.0], size=(k, 2))
            conf = rng.uniform(size=k) * (rng.uniform(size=k) < 0.5)
            pose = Pose(coords=coords, conf=conf, visible=rng.uniform(size=k) < 0.5)
            width = float(rng.uniform(0.5, 4.0))
            got = render_heatmaps(pose, 16, 8, width)
            assert np.array_equal(got, render_heatmaps_loop(pose, 16, 8, width))
    hidden = Pose(coords=np.zeros((3, 2)), conf=np.zeros(3), visible=np.zeros(3, bool))
    assert np.array_equal(render_heatmaps(hidden, 16, 8, 2.0), np.zeros((3, 16, 8)))


# ---------------------------------------------------------------------------
# modulation

def test_modulation_zero_weights_gives_zero():
    store = nn.ParamStore()
    rng = np.random.default_rng(0)
    init_spapde_params(store, "m", in_channels=4, feat_channels=3, rng=rng)
    for _, p in store.items():
        p.data = np.zeros_like(p.data)
    gamma, beta = spapde_modulation(np.random.default_rng(1).uniform(size=(1, 4, 6, 6)), store, "m")
    assert (gamma.data == 0).all() and (beta.data == 0).all()


def test_modulation_constant_on_zero_heatmaps():
    store = nn.ParamStore()
    rng = np.random.default_rng(0)
    init_spapde_params(store, "m", in_channels=4, feat_channels=3, rng=rng)
    store["m.shared.b"].data = np.full(3, 0.7)   # relu-positive
    store["m.gamma.b"].data = np.full(3, -0.2)
    store["m.beta.b"].data = np.full(3, 0.4)
    gamma, beta = spapde_modulation(np.zeros((1, 4, 6, 6)), store, "m")
    # interior pixels see identical receptive fields; borders differ (padding)
    for arr in (gamma.data[0], beta.data[0]):
        for c in range(arr.shape[0]):
            inner = arr[c, 1:-1, 1:-1]
            assert np.ptp(inner) < 1e-12


# ---------------------------------------------------------------------------
# de-normalization

def test_forward_plain_normalization():
    rng = np.random.default_rng(2)
    f = rng.uniform(-3, 5, size=(3, 2, 8, 8))
    out = spapde_forward(f, nn.Tensor(np.ones((1, 1, 1, 1))), nn.Tensor(np.zeros((1, 1, 1, 1))))
    flat = out.data.transpose(1, 0, 2, 3).reshape(2, -1)
    np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(flat.std(axis=1), 1.0, atol=1e-5)


def test_forward_gamma_zero_returns_beta():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((2, 3, 4, 4))
    beta = rng.standard_normal((2, 3, 4, 4))
    out = spapde_forward(f, nn.Tensor(np.zeros_like(f)), nn.Tensor(beta))
    np.testing.assert_allclose(out.data, beta, atol=1e-12)


def test_forward_moment_transfer():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((4, 1, 50, 50))  # 10^4 samples per channel
    out = spapde_forward(f, nn.Tensor(np.full_like(f, 2.0)), nn.Tensor(np.full_like(f, 3.0)))
    assert out.data.mean() == pytest.approx(3.0, abs=0.1)
    assert out.data.std() == pytest.approx(2.0, abs=0.1)


def test_forward_zero_input_is_finite():
    out = spapde_forward(np.zeros((1, 2, 4, 4)),
                         nn.Tensor(np.ones((1, 1, 1, 1))), nn.Tensor(np.zeros((1, 1, 1, 1))))
    assert np.isfinite(out.data).all()
    assert (out.data == 0).all()


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 2, 4, 4))
    gamma = rng.standard_normal((4, 2, 4, 4))
    beta = rng.standard_normal((4, 2, 4, 4))
    perm = np.array([2, 0, 3, 1])
    out = spapde_forward(f, nn.Tensor(gamma), nn.Tensor(beta)).data
    out_p = spapde_forward(f[perm], nn.Tensor(gamma[perm]), nn.Tensor(beta[perm])).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_gradcheck_modulation_then_forward():
    store = nn.ParamStore()
    rng = np.random.default_rng(6)
    init_spapde_params(store, "m", in_channels=2, feat_channels=2, rng=rng)
    f = nn.Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    h = nn.Tensor(rng.uniform(size=(2, 2, 4, 4)), requires_grad=True)

    def run(f_in, h_in, *params):
        gamma, beta = spapde_modulation(h_in, store, "m")
        return spapde_forward(f_in, gamma, beta)

    inputs = [f, h] + [p for _, p in store.items()]
    err = nn.grad_check(run, inputs, rng=np.random.default_rng(7))
    assert err <= 1e-4, err


# ---------------------------------------------------------------------------
# full embedding path

def build_backbone(cfg, seed=0):
    store = nn.ParamStore()
    init_backbone_params(store, cfg, np.random.default_rng(seed))
    return store


def test_embed_deterministic():
    cfg = small_cfg()
    store = build_backbone(cfg)
    rng = np.random.default_rng(1)
    crop = rng.uniform(size=(3, 16, 8))
    pose = pose_in_crop([[2, 3], [5, 8], [1, 12], [6, 6]])
    hm = render_heatmaps(pose, 16, 8, kernel_width=2.0)
    e1 = appearance_embed_batch(crop[None], hm[None], store).data[0]
    e2 = appearance_embed_batch(crop[None], hm[None], store).data[0]
    np.testing.assert_array_equal(e1, e2)
    assert e1.shape == (8,)


@pytest.mark.parametrize("seed", range(5))
def test_embed_sensitive_to_pose(seed):
    cfg = small_cfg()
    store = build_backbone(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    crop = rng.uniform(size=(3, 16, 8))
    h1 = render_heatmaps(pose_in_crop([[1, 1], [2, 2], [1, 3], [3, 1]]), 16, 8, 2.0)
    h2 = render_heatmaps(pose_in_crop([[6, 14], [5, 12], [7, 10], [4, 13]]), 16, 8, 2.0)
    e1 = appearance_embed_batch(crop[None], h1[None], store).data[0]
    e2 = appearance_embed_batch(crop[None], h2[None], store).data[0]
    assert np.linalg.norm(e1 - e2) > 1e-6


def test_embed_zero_everything_finite():
    cfg = small_cfg()
    store = build_backbone(cfg)
    e = appearance_embed_batch(np.zeros((1, 3, 16, 8)), np.zeros((1, 4, 16, 8)), store)
    assert np.isfinite(e.data[0]).all()
