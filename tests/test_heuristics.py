"""Hand-constructed weights behave as advertised."""
import dataclasses
import functools
import json

import numpy as np
import pytest

from dstrack import nn
from dstrack.config import EngineConfig
from dstrack.cli import main
from dstrack.heuristics import EDGE_FLOOR, EDGE_GAIN, build_heuristic_model
from dstrack.tracker import TrackerState, step
from small_config import SMALL as CFG

# the edge readout is constructed per config: check it at the small test
# config and at the default one
EDGE_CONFIGS = pytest.mark.parametrize("cfg", [CFG, EngineConfig()],
                                       ids=["small", "default"])
# and, for the construction itself, at the widest edge path and the
# narrowest one it can build
WIDE = [CFG, EngineConfig(), EngineConfig(d_e=256)]
WIDE_IDS = ["small", "default", "d_e256"]
WIDTHS = pytest.mark.parametrize("cfg", WIDE + [EngineConfig(d_e=3)],
                                 ids=WIDE_IDS + ["d_e3"])


@pytest.fixture(scope="module")
def model():
    assert CFG.alpha == 0.3
    return build_heuristic_model(CFG)


@functools.lru_cache(maxsize=None)
def model_at(alpha, cfg=CFG):
    """The heuristic model with the blend set to alpha; its weights do not
    depend on alpha."""
    return build_heuristic_model(dataclasses.replace(cfg, alpha=alpha))


def final_edge_logit(model, features):
    """The geometry logit the matching layer reads for each raw feature row,
    along the real path: edge head, then every decoder stage, for one track
    against one detection per row.  Zero track and detection embeddings
    make every appearance logit zero."""
    f = np.asarray(features, dtype=np.float64)
    s = model.store
    d = model.cfg.d
    o_edge = nn.linear(model.edge_head(f[None]), s["edge_head.w3"], s["edge_head.b3"])
    o_edge = nn.reshape(o_edge, (1, len(f)))
    _, o_edge, _ = model.decoder_forward(np.zeros((1, d)), o_edge, np.zeros((len(f), d)))
    return o_edge.data[0]


def edge_probes():
    """The 16 corners of the feature cube, 200 seeded interior points and
    the centre."""
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * 4)).reshape(4, -1).T
    interior = np.random.default_rng(5).uniform(0.0, 1.0, size=(200, 4))
    return np.concatenate([corners, interior, np.full((1, 4), 0.5)])


def edge_head_logit(model, features):
    """The edge head's own output, w3 . edge_head(f) + b3, per feature row."""
    s = model.store
    out = nn.linear(model.edge_head(features), s["edge_head.w3"], s["edge_head.b3"])
    return out.data[:, 0]


@WIDTHS
def test_edge_calibration_residual_small(cfg):
    f = edge_probes()
    target = EDGE_GAIN * (f.mean(axis=1) - EDGE_FLOOR)
    residual = np.max(np.abs(edge_head_logit(model_at(cfg.alpha, cfg), f) - target))
    assert residual < 0.02


@pytest.mark.parametrize("cfg", WIDE, ids=WIDE_IDS)
def test_edge_readout_is_moderate(cfg):
    # max|w3| falls as 1/d_e: a least-squares readout through the GELU
    # curvature reached 1e8 here
    assert np.max(np.abs(model_at(cfg.alpha, cfg).store["edge_head.w3"].data)) <= 100.0


@WIDTHS
def test_edge_logit_independent_of_summation_order(cfg):
    # the units of the edge head permuted: the same function, summed in
    # another order by both matmuls over d_e
    f = edge_probes()
    base = edge_head_logit(model_at(cfg.alpha, cfg), f)
    model = build_heuristic_model(cfg)
    perm = np.random.default_rng(6).permutation(cfg.d_e)
    s = model.store
    for name in ("w1", "b1", "ln1.g", "ln1.b", "b2", "ln2.g", "ln2.b"):
        s[f"edge_head.{name}"].data[...] = s[f"edge_head.{name}"].data[perm]
    s["edge_head.w2"].data[...] = s["edge_head.w2"].data[perm][:, perm]
    s["edge_head.w3"].data[...] = s["edge_head.w3"].data[:, perm]
    moved = edge_head_logit(model, f)
    assert np.max(np.abs(moved - base)) <= 1e-12 * np.max(np.abs(base))


# d_e = 1 never reaches the heuristic model: the config refuses it
# (test_cli.py::test_width_below_two_is_usage_error)
@pytest.mark.parametrize("d_e", [2])
def test_too_narrow_edge_path_is_refused(d_e, tmp_path, capsys):
    cfg = dataclasses.replace(CFG, d_e=d_e)
    with pytest.raises(ValueError, match="d_e"):
        build_heuristic_model(cfg)
    seq, cfg_path = tmp_path / "seq.json", tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert main(["synth", "--scenario", "crossing", "--frames", "2",
                 "--config", str(cfg_path), "--out", str(seq)]) == 0
    capsys.readouterr()
    assert main(["track", str(seq), "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "d_e" in err


def test_seed_changes_no_weight():
    a = build_heuristic_model(CFG, seed=0).store.state_dict()
    b = build_heuristic_model(CFG, seed=1).store.state_dict()
    assert a.keys() == b.keys()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


@EDGE_CONFIGS
def test_edge_logit_monotone_in_mean_feature(cfg):
    s = np.linspace(0.0, 1.0, 21)
    feats = np.column_stack([s, s, s, s])
    for alpha in (0.0, 0.3, 0.7):
        logits = final_edge_logit(model_at(alpha, cfg), feats)
        assert np.all(np.diff(logits) > 0)


def test_edge_logit_monotone_per_feature(model):
    base = np.full(4, 0.4)
    for j in range(4):
        lo, hi = base.copy(), base.copy()
        lo[j], hi[j] = 0.1, 0.9
        l_lo = final_edge_logit(model, lo[None])[0]
        l_hi = final_edge_logit(model, hi[None])[0]
        assert l_hi > l_lo


@EDGE_CONFIGS
def test_edge_logit_sign_convention(cfg):
    # zero similarity sits below the null logit, strong similarity far above
    z = final_edge_logit(model_at(0.0, cfg), np.zeros((1, 4)))[0]
    s = final_edge_logit(model_at(0.0, cfg), np.full((1, 4), 0.9))[0]
    assert z < 0.0 < s
    assert s > 3.0


def test_encoder_is_row_normalization(model):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, CFG.d)) * 3.0 + 1.0
    enc, _ = model.encoder_forward(x)
    expect = (x - x.mean(axis=1, keepdims=True)) / np.sqrt(
        x.var(axis=1) + 1e-5)[:, None]
    # each of the four stacked LayerNorms folds in its 1e-5 epsilon, so the
    # stack drifts from a single normalization by a few 1e-5
    np.testing.assert_allclose(enc.data, expect, atol=1e-4)


def test_new_track_head_near_identity_on_normalized_rows(model):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, CFG.d))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    out = model.new_track_head(nn.Tensor(x))
    assert np.max(np.abs(out.data - x)) < 0.05


def test_confidence_gate_stays_shut(model):
    rng = np.random.default_rng(2)
    e_t = rng.standard_normal((3, CFG.d))
    e_d = rng.standard_normal((2, CFG.d))
    edge = rng.uniform(0, 1, size=(3, 2, 4))
    fwd = model.forward_frame(e_t, edge, e_d)
    assert np.all(fwd.update_gate < 1e-6)
    np.testing.assert_allclose(fwd.updated_tracks.data, e_t, atol=1e-6)


def test_matching_prefers_same_appearance_cluster(model):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((CFG.d, 2)))
    c0, c1 = 6.0 * q[:, 0], 6.0 * q[:, 1]
    # tracks born from frame-1 versions of the clusters
    def normalized(v):
        return (v - v.mean()) / v.std()
    tracks = np.stack([normalized(c0 + 0.3 * rng.standard_normal(CFG.d)),
                       normalized(c1 + 0.3 * rng.standard_normal(CFG.d))])
    dets = np.stack([c1 + 0.3 * rng.standard_normal(CFG.d),
                     c0 + 0.3 * rng.standard_normal(CFG.d)])
    edge = np.zeros((2, 2, 4))  # geometry mute: stale everywhere
    fwd = model_at(1.0).forward_frame(tracks, edge, dets)
    m = fwd.match.fused.data
    assert m[0, 1] > 0.95  # det 0 is cluster 1
    assert m[1, 0] > 0.95
    assert m[0, 0] < 0.02 and m[1, 1] < 0.02


def test_tracker_smoke_two_frames(model):
    rng = np.random.default_rng(4)
    from dstrack.datatypes import Box, Detection, Pose

    def det(x, y, vec):
        k = CFG.keypoint_count
        coords = np.column_stack([np.full(k, x + 10), np.linspace(y + 5, y + 75, k)])
        pose = Pose(coords=coords, conf=np.ones(k), visible=np.ones(k, bool))
        return Detection(box=Box(x, y, x + 40, y + 80), pose=pose, appearance=vec)

    v0 = rng.standard_normal(CFG.d) * 4
    v1 = rng.standard_normal(CFG.d) * 4
    state = TrackerState()
    r0, state, _ = step(state, [det(10, 10, v0), det(200, 10, v1)], model)
    assert len(r0.new_tracks) == 2
    r1, state, _ = step(state, [det(13, 10, v0), det(197, 10, v1)], model)
    assert r1.assignments == [(0, 0), (1, 1)]
    assert not r1.new_tracks and not r1.duplicates
