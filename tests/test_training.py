"""Losses, labeling, optimizer mechanics, and toy training runs."""
import dataclasses
import itertools

import numpy as np
import pytest

from dstrack import nn, training
from dstrack.config import EngineConfig
from dstrack.datatypes import Box, Detection, Pose
from dstrack.sequence_io import SequenceFrame
from dstrack.synth import synth_sequence
from dstrack.training import (
    DUPLICATE_PROB,
    GREEDY_OKS_FLOOR,
    AdamW,
    greedy_identity_assignment,
    identity_groups,
    inject_duplicate,
    labeled_frames,
    loss_attn,
    match_groups,
    subsequences,
    toy_lr,
    train_toy,
)
from dstrack.transformer import TrackingModel
from small_config import SMALL
from test_geometry import oks_triplet


def small_cfg(**kw):
    base = dict(d=8, d_e=8, keypoint_count=4, oks_kappas=(0.15,) * 4,
                ffn_hidden=16, crop_height=16, crop_width=8)
    base.update(kw)
    return EngineConfig(**base)


def pose_at(x, y, k=4, spread=6.0):
    offs = np.linspace(0, spread, k)
    coords = np.column_stack([np.full(k, x) + offs, np.full(k, y) + offs])
    return Pose(coords=coords, conf=np.ones(k), visible=np.ones(k, bool))


def det_at(x, y, appearance, size=20.0):
    return Detection(box=Box(x, y, x + size, y + size),
                     pose=pose_at(x + 4, y + 4), appearance=appearance)


# ---------------------------------------------------------------------------
# greedy identity assignment

KAP = np.array([0.15] * 4)


def test_greedy_identity_exact_match():
    poses = [pose_at(0, 0), pose_at(100, 0), pose_at(0, 100)]
    boxes = [Box(x, y, x + 20, y + 20) for x, y in [(0, 0), (100, 0), (0, 100)]]
    labels = greedy_identity_assignment(poses, poses, [7, 8, 9], boxes, KAP)
    assert labels == [7, 8, 9]


def test_greedy_no_gt():
    labels = greedy_identity_assignment([pose_at(0, 0)], [], [], [], KAP)
    assert labels == [None]


def test_greedy_floor_blocks_weak_matches():
    det = [pose_at(0, 0)]
    gt = [pose_at(500, 500)]
    labels = greedy_identity_assignment(det, gt, [1], [Box(500, 500, 520, 520)], KAP)
    assert labels == [None]


def greedy_trace_oracle(sim, gt_ids, floor):
    """All greedy runs are identical when maxima are unique; enumerate the
    trace explicitly."""
    sim = sim.copy()
    labels = [None] * sim.shape[0]
    while np.isfinite(sim).any() and sim.max() > floor:
        i, j = np.unravel_index(np.argmax(sim), sim.shape)
        labels[i] = gt_ids[j]
        sim[i, :] = -np.inf
        sim[:, j] = -np.inf
    return labels


def test_greedy_three_dets_two_gts_hand_ordering():
    # det0 very close to gtA; det1 moderately close to gtA and gtB; det2 far
    gt = [pose_at(0, 0), pose_at(30, 0)]
    gt_ids = ["A", "B"]
    boxes = [Box(-5, -5, 25, 25), Box(25, -5, 55, 25)]
    dets = [pose_at(1, 0), pose_at(24, 0), pose_at(300, 300)]
    labels = greedy_identity_assignment(dets, gt, gt_ids, boxes, KAP)

    sim = np.array([[oks_triplet(d, g, b, KAP)[0] for g, b in zip(gt, boxes)]
                    for d in dets])
    assert labels == greedy_trace_oracle(sim, gt_ids, 0.3)
    # each identity at most once
    used = [l for l in labels if l is not None]
    assert len(used) == len(set(used))


@pytest.mark.parametrize("seed", range(16))
def test_greedy_matches_trace_oracle_on_scalar_oks(seed):
    # detections scattered around the gt poses, most with OKS near the
    # floor, some far, some partly hidden; the oracle's sim comes from the
    # scalar oks_triplet
    rng = np.random.default_rng(seed)
    n_gt, n_det = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    anchors = rng.uniform(0, 120, size=(n_gt, 2))
    gt = [pose_at(x, y) for x, y in anchors]
    boxes = [Box(x - 4, y - 4, x + 16, y + 16) for x, y in anchors]
    gt_ids = [10 + j for j in range(n_gt)]
    dets = []
    for _ in range(n_det):
        base = gt[int(rng.integers(n_gt))].coords
        spread = rng.uniform(0.5, 6.0) if rng.uniform() < 0.8 else 40.0
        coords = base + rng.normal(0, spread, size=base.shape)
        visible = rng.uniform(size=4) < 0.8
        dets.append(Pose(coords=coords, conf=np.where(visible, 0.9, 0.0), visible=visible))
    labels = greedy_identity_assignment(dets, gt, gt_ids, boxes, KAP)
    sim = np.array([[oks_triplet(d, g, b, KAP)[0] for g, b in zip(gt, boxes)]
                    for d in dets])
    assert labels == greedy_trace_oracle(sim, gt_ids, GREEDY_OKS_FLOOR)


def test_identity_groups():
    assert identity_groups([5, None, 5, 7]) == {5: [0, 2], 7: [3]}


# ---------------------------------------------------------------------------
# matching loss: loss_attn on the matching layer's D x (T+1) output, one
# column per detection from match_groups

def M_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return nn.Tensor(rows, requires_grad=True)


def loss_match(match, det_identity, track_identity):
    """The match term as the trainer builds it."""
    return loss_attn(match, match_groups(det_identity, track_identity))


def test_match_groups_map_identities_to_track_columns():
    # unlabeled -> null, identity without a track -> null, duplicates of one
    # identity -> the same column
    assert match_groups([4, None, 9, 4, 7], [7, 4]) == [[1], [], [], [1], [0]]
    assert match_groups([3], []) == [[]]
    assert match_groups([], [1, 2]) == []


def test_match_term_is_the_mean_log_of_the_picked_entries():
    # with one column per row, loss_attn's masked row sum is the picked entry
    # itself, so the term is bit-equal to -mean(log(M[i, col(i)]))
    rng = np.random.default_rng(4)
    for _ in range(10):
        n_det, n_track = int(rng.integers(1, 6)), int(rng.integers(0, 4))
        raw = rng.uniform(size=(n_det, n_track + 1))
        raw /= raw.sum(axis=1, keepdims=True)
        dets = [int(v) if v < n_track + 2 else None
                for v in rng.integers(0, n_track + 3, size=n_det)]
        tracks = list(range(n_track))
        cols = [g[0] if g else n_track for g in match_groups(dets, tracks)]
        picked = np.clip(raw[np.arange(n_det), cols], 1e-12, 1.0)
        expect = np.sum(np.log(picked)) * (-1.0 / n_det)
        assert float(loss_match(nn.Tensor(raw), dets, tracks).data) == expect


def test_loss_match_perfect_prediction():
    m = M_rows([[1.0, 0.0]])
    loss = loss_match(m, det_identity=[11], track_identity=[11])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_loss_match_unlabeled_half_null():
    m = M_rows([[0.5, 0.5]])
    loss = loss_match(m, det_identity=[None], track_identity=[42])
    assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_match_identity_absent_from_tracks_targets_null():
    m = M_rows([[0.9, 0.1]])
    loss = loss_match(m, det_identity=[99], track_identity=[1])
    assert float(loss.data) == pytest.approx(-np.log(0.1), rel=1e-9)


def test_loss_match_monotone_in_correct_mass():
    worse = loss_match(M_rows([[0.6, 0.4]]), [3], [3])
    better = loss_match(M_rows([[0.8, 0.2]]), [3], [3])
    assert float(better.data) < float(worse.data)


@pytest.mark.parametrize("seed", range(5))
def test_loss_match_gradcheck(seed):
    rng = np.random.default_rng(seed)
    logits = nn.Tensor(rng.standard_normal((3, 2)), requires_grad=True)

    def run(lg):
        m = nn.softmax_null(lg)
        return loss_match(m, [1, None, 2], [1, 2])

    err = nn.grad_check(run, [logits], rng=np.random.default_rng(seed + 1))
    assert err <= 1e-4, err


# ---------------------------------------------------------------------------
# attention loss

def test_loss_attn_single_detection():
    a = nn.Tensor(np.array([[0.8, 0.2]]))
    loss = loss_attn(a, [[0]])
    assert float(loss.data) == pytest.approx(-np.log(0.8), rel=1e-12)


def test_loss_attn_no_match_track():
    a = nn.Tensor(np.array([[0.0, 1.0]]))
    loss = loss_attn(a, [[]])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_loss_attn_duplicate_accumulation():
    a = nn.Tensor(np.array([[0.3, 0.4, 0.3]]))
    loss = loss_attn(a, [[0, 1]])
    assert float(loss.data) == pytest.approx(-np.log(0.7), abs=1e-9)


def test_loss_attn_nonnegative_and_zero_iff_full_mass():
    a = nn.Tensor(np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3]]))
    assert float(loss_attn(a, [[0], [0, 1]]).data) > 0.0
    full = nn.Tensor(np.array([[0.6, 0.4, 0.0]]))
    assert float(loss_attn(full, [[0, 1]]).data) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.uniform(size=(3, 4)) + 1e-9
        raw /= raw.sum(axis=1, keepdims=True)
        groups = [list(rng.choice(3, size=rng.integers(0, 3), replace=False)) for _ in range(3)]
        assert float(loss_attn(nn.Tensor(raw), groups).data) >= 0.0


@pytest.mark.parametrize("seed", range(5))
def test_loss_attn_gradcheck(seed):
    rng = np.random.default_rng(seed)
    logits = nn.Tensor(rng.standard_normal((2, 3)), requires_grad=True)

    def run(lg):
        return loss_attn(nn.softmax_null(lg), [[0, 2], []])

    err = nn.grad_check(run, [logits], rng=np.random.default_rng(seed + 10))
    assert err <= 1e-4, err


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_zero_lr_keeps_weights_bitwise():
    store = nn.ParamStore()
    w = store.create("w", (3, 3), np.random.default_rng(0))
    before = w.data.copy()
    opt = AdamW(store, 0.0)
    loss = nn.reduce_sum(nn.mul(w, w))
    loss.backward()
    opt.step()
    assert (w.data == before).all()


def test_adamw_descends_quadratic():
    store = nn.ParamStore()
    w = store.create("w", (4,), np.random.default_rng(1))
    opt = AdamW(store, 0.05)
    for _ in range(150):
        store.zero_grad()
        diff = nn.add(w, -2.0)
        loss = nn.reduce_sum(nn.mul(diff, diff))
        loss.backward()
        opt.step()
    np.testing.assert_allclose(w.data, np.full(4, 2.0), atol=0.05)


def test_adamw_matches_per_tensor_update_bitwise():
    # the flat update must round exactly like the per-tensor expressions;
    # "b" has no gradient every third step and must then stay untouched
    rng = np.random.default_rng(21)
    store = nn.ParamStore()
    for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 3, 2)), ("s", (1,))):
        store.create(name, shape, rng)
    opt = AdamW(store, 0.01)
    beta1, beta2, eps, wd = 0.9, 0.999, 1e-8, 0.01
    ref = {name: p.data.copy() for name, p in store.items()}
    ref_m = {name: np.zeros_like(p.data) for name, p in store.items()}
    ref_v = {name: np.zeros_like(p.data) for name, p in store.items()}
    for k in range(12):
        for name, p in store.items():
            p.grad = None if name == "b" and k % 3 == 1 else rng.standard_normal(p.data.shape)
        lr, step = toy_lr(0.01, k), k + 1
        skipped = store["b"].data
        for name, p in store.items():
            g = p.grad
            if g is None:
                continue
            m = ref_m[name] = beta1 * ref_m[name] + (1 - beta1) * g
            v = ref_v[name] = beta2 * ref_v[name] + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            ref[name] = ref[name] - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref[name])
        opt.step()
        if k % 3 == 1:
            assert store["b"].data is skipped
        for name, p in store.items():
            assert p.data.shape == ref[name].shape
            assert np.array_equal(p.data, ref[name]), (k, name)
            assert np.array_equal(opt._m[name], ref_m[name]), (k, name)
            assert np.array_equal(opt._v[name], ref_v[name]), (k, name)


def test_lr_schedule_phases():
    # linear warm-up over 10 iterations, divided by 10 from iteration 150
    assert toy_lr(1.0, 0) == pytest.approx(0.1)
    assert toy_lr(1.0, 9) == pytest.approx(1.0)
    assert toy_lr(1.0, 149) == pytest.approx(1.0)
    assert toy_lr(1.0, 150) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# duplicate injection and windows

def test_inject_duplicate_always():
    # this generator's first draw, 0.26, falls below DUPLICATE_PROB
    assert np.random.default_rng(2).uniform() < DUPLICATE_PROB
    rng = np.random.default_rng(2)
    frame = SequenceFrame(0, (0, 0), [det_at(0, 0, np.zeros(8))], [4])
    out = inject_duplicate(frame, rng)
    assert len(out.detections) == 2
    assert out.identities == [4, 4]
    src, dup = out.detections
    assert dup.box != src.box  # jittered
    w_src = src.box.x_max - src.box.x_min
    w_dup = dup.box.x_max - dup.box.x_min
    assert abs(w_dup / w_src - 1.0) <= 0.05 + 1e-9


def test_inject_duplicate_never_on_prob_zero():
    # this generator's first draw, 0.64, is not below DUPLICATE_PROB
    assert np.random.default_rng(0).uniform() >= DUPLICATE_PROB
    rng = np.random.default_rng(0)
    frame = SequenceFrame(0, (0, 0), [det_at(0, 0, np.zeros(8))], [4])
    out = inject_duplicate(frame, rng)
    assert out is frame


def test_inject_duplicate_lists_the_copy_among_duplicates():
    rng = np.random.default_rng(2)
    dets = [det_at(0, 0, np.zeros(8)), det_at(1, 1, np.zeros(8))]
    frame = SequenceFrame(5, (64, 64), dets, [4, 4], duplicates=(1,))
    out = inject_duplicate(frame, rng)
    assert out.duplicates == (1, 2)
    assert (out.index, out.image_size) == (5, (64, 64))
    assert out.identities == [4, 4, 4]
    # the input frame is left as it was
    assert len(frame.detections) == 2 and frame.duplicates == (1,)


def test_subsequence_windows():
    assert subsequences(3) == [0]
    assert subsequences(5) == [0, 2]
    assert subsequences(7) == [0, 2, 4]
    assert subsequences(2) == []


# ---------------------------------------------------------------------------
# toy training

def two_identity_sequence(cfg, n_frames=9, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2, cfg.d)) * 2.0
    frames = []
    for t in range(n_frames):
        dets, ids = [], []
        for ident in (0, 1):
            x = 10.0 + 25.0 * t / n_frames + ident * 120.0
            noise = rng.standard_normal(cfg.d) * 0.1
            dets.append(det_at(x, 10.0 + ident * 5.0, base[ident] + noise))
            ids.append(ident)
        frames.append(SequenceFrame(t, (0, 0), dets, ids))
    return [frames]


def test_train_toy_deterministic():
    cfg = small_cfg(d=8, ffn_hidden=12)
    seqs = two_identity_sequence(cfg)
    _, c1 = train_toy(seqs, cfg, seed=3, n_iters=6)
    _, c2 = train_toy(seqs, cfg, seed=3, n_iters=6)
    assert [r.total for r in c1] == [r.total for r in c2]


def test_train_toy_zero_lr_keeps_weights():
    cfg = small_cfg(d=8, ffn_hidden=12)
    seqs = two_identity_sequence(cfg)
    model = TrackingModel(cfg, seed=1)
    before = {k: v.copy() for k, v in model.store.state_dict().items()}
    train_toy(seqs, cfg, seed=1, n_iters=4, model=model, lr=0.0)
    after = model.store.state_dict()
    for k in before:
        assert (before[k] == after[k]).all()


def test_train_toy_reduces_loss():
    cfg = small_cfg(d=8, ffn_hidden=12)
    seqs = two_identity_sequence(cfg)
    _, curve = train_toy(seqs, cfg, seed=0, n_iters=60)
    first = np.mean([r.total for r in curve[:5]])
    last = np.mean([r.total for r in curve[-5:]])
    assert last < first


def test_train_toy_loss_rows_have_stage_columns():
    cfg = small_cfg(d=8, ffn_hidden=12)
    seqs = two_identity_sequence(cfg)
    _, curve = train_toy(seqs, cfg, seed=0, n_iters=2)
    row = curve[0]
    assert len(row.enc) == cfg.n_encoder_stages
    assert len(row.dec) == cfg.n_decoder_stages
    assert row.total == pytest.approx(row.match + sum(row.enc) + sum(row.dec), rel=1e-9)


def test_train_toy_rejects_too_short_sequences():
    cfg = small_cfg(d=8, ffn_hidden=12)
    frames = two_identity_sequence(cfg)[0][:2]
    with pytest.raises(ValueError, match="3-frame windows"):
        train_toy([frames], cfg, seed=0, n_iters=2)


def test_train_toy_runs_through_an_empty_frame():
    # a window may hold a frame without detections, whose embedding matrix
    # is 0 x d; the totals are the vector path's recorded values
    frames = labeled_frames(synth_sequence("crowd", seed=0, cfg=SMALL))
    frames[3].detections = []
    frames[3].identities = []
    _, curve = train_toy([frames[:6]], SMALL, seed=0, n_iters=4)
    assert [repr(r.total) for r in curve] == [
        "14.834920784105677", "24.821177214587365", "14.37163385825082",
        "24.124052936441792"]


def _watch_people(monkeypatch):
    """Record, per frame, the gt poses of the greedy pass and, per tracked
    frame, the teacher boxes edge_features reads."""
    gt_poses, teacher_boxes = [], []
    greedy, edges = training.greedy_identity_assignment, training.edge_features

    def watched_greedy(det_poses, gt, *args, **kwargs):
        gt_poses.append(list(gt))
        return greedy(det_poses, gt, *args, **kwargs)

    def watched_edges(tracks, dets, cfg):
        teacher_boxes.append([t.last_box for t in tracks])
        return edges(tracks, dets, cfg)
    monkeypatch.setattr(training, "greedy_identity_assignment", watched_greedy)
    monkeypatch.setattr(training, "edge_features", watched_edges)
    return gt_poses, teacher_boxes


def test_training_follows_the_detection_eval_scores(monkeypatch):
    # a listed duplicate placed before its original is not the person: the
    # greedy pass's gt poses and the teacher geometry come from each
    # identity's first detection that frame.duplicates does not list
    seq = synth_sequence("duplicates", seed=3, cfg=SMALL, duplicate_prob=1.0)
    frames = []
    for fr in seq.frames[1:4]:
        order = list(fr.duplicates) + [i for i in range(len(fr.detections))
                                       if i not in fr.duplicates]
        frames.append(dataclasses.replace(
            fr, detections=[fr.detections[i] for i in order],
            identities=[fr.identities[i] for i in order],
            duplicates=tuple(range(len(fr.duplicates)))))
    assert [fr.duplicates for fr in frames] == [(0,)] * 3
    gt_poses, teacher_boxes = _watch_people(monkeypatch)
    train_toy([frames], SMALL, seed=0, n_iters=1)
    # detection 0 is the listed copy; 1 and 2 are identities 0 and 1
    assert [fr.identities[1:] for fr in frames] == [[0, 1]] * 3
    assert [[id(p) for p in poses] for poses in gt_poses] == [
        [id(fr.detections[i].pose) for i in (1, 2)] for fr in frames]
    assert teacher_boxes == [[fr.detections[i].box for i in (1, 2)] for fr in frames[:2]]


def test_identity_with_only_listed_duplicates_is_not_followed(monkeypatch):
    # an identity whose every detection is listed opens no track and moves
    # no teacher geometry
    seq = synth_sequence("duplicates", seed=3, cfg=SMALL, duplicate_prob=1.0)
    f1, f2, f3 = seq.frames[1:4]
    assert f1.identities == f2.identities == [0, 1, 0] and f1.duplicates == (2,)
    frames = [dataclasses.replace(f1, duplicates=(1, 2)),  # identity 1 only listed
              dataclasses.replace(f2, duplicates=(0, 2)),  # identity 0 only listed
              f3]
    _, teacher_boxes = _watch_people(monkeypatch)
    train_toy([frames], SMALL, seed=0, n_iters=1)
    assert teacher_boxes == [[f1.detections[0].box],
                             [f1.detections[0].box, f2.detections[1].box]]


def test_train_toy_on_crops_trains_the_backbone():
    cfg = small_cfg()
    seq = synth_sequence("crossing", n_frames=5, seed=0, cfg=cfg, crops=True)
    model, curve = train_toy([labeled_frames(seq)], cfg, seed=0, n_iters=3)
    assert all(np.isfinite(r.total) for r in curve)
    fresh = TrackingModel(cfg, seed=0, with_backbone=True).store.state_dict()
    trained = model.store.state_dict()
    assert trained.keys() == fresh.keys()
    weights = [k for k in fresh if k.startswith("backbone.stage") and k.endswith(".conv.w")]
    assert weights
    for k in weights + ["backbone.head.w"]:
        assert not np.array_equal(trained[k], fresh[k]), k


def test_gradient_reaches_every_stage_edge_readout():
    # after one training window, every edge output row (the edge head's and
    # each decoder stage's edge refresh) has accumulated gradient
    cfg = small_cfg(d=8, ffn_hidden=12)
    seqs = two_identity_sequence(cfg)
    model = TrackingModel(cfg, seed=5)
    names = ["edge_head.w3", "edge_head.b3"]
    for n in range(cfg.n_decoder_stages):
        names += [f"decoder.stage{n}.ffn_e.w2", f"decoder.stage{n}.ffn_e.b2"]
    grads = {}
    orig_step = AdamW.step

    def spy_step(self):
        for name in names:
            g = self.store[name].grad
            grads[name] = None if g is None else np.abs(g).max()
        orig_step(self)

    AdamW.step = spy_step
    try:
        train_toy(seqs, cfg, seed=5, n_iters=1, model=model)
    finally:
        AdamW.step = orig_step
    for name in names:
        assert grads[name] is not None and grads[name] > 0.0, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_embedding_names_the_iteration_and_window():
    # without np.errstate, an appearance of 1e200 overflows into a non-finite
    # track embedding at frame 0; the refusal still names where it happened
    frames = labeled_frames(synth_sequence("crowd", n_frames=4, seed=0, cfg=SMALL))
    det = frames[0].detections[0]
    look = det.appearance.copy()
    look[0] = 1e200
    frames[0] = dataclasses.replace(frames[0], detections=[
        dataclasses.replace(det, appearance=look)] + frames[0].detections[1:])
    with pytest.raises((RuntimeError, ValueError), match="finite") as err:
        train_toy([frames], SMALL, seed=0, n_iters=1)
    assert "iteration 0 (sequence 0, frames 0-2)" in str(err.value)


def test_a_long_window_runs_through_the_track_lifecycle(monkeypatch):
    # a 6-frame window at tau_age 1, with one identity missing from frames 2
    # and 3: its teacher track closes, and its return opens a fresh track
    cfg = dataclasses.replace(SMALL, tau_age=1)
    seq = synth_sequence("crowd", n_frames=6, seed=0, cfg=cfg)
    gone = seq.frames[0].identities[0]
    frames = []
    for f, fr in enumerate(seq.frames):
        assert fr.duplicates == ()
        keep = [i for i, ident in enumerate(fr.identities) if f not in (2, 3) or ident != gone]
        frames.append(dataclasses.replace(fr, detections=[fr.detections[i] for i in keep],
                                          identities=[fr.identities[i] for i in keep]))
    results, advance = [], training.advance

    def watched(state, detections, decision, *args):
        out = advance(state, detections, decision, *args)
        results.append((out[0], len(detections)))
        return out
    monkeypatch.setattr(training, "advance", watched)
    model = TrackingModel(cfg, seed=0)
    row = training._train_window(model, AdamW(model.store, 1e-3), frames, cfg, 0)

    assert len(results) == 5  # every frame but the last advances the state
    assert all(r.detection_partition(n) for r, n in results)
    opened = [dict((frames[f].identities[i], tid) for i, tid in r.new_tracks)
              for f, (r, _) in enumerate(results)]
    first = opened[0][gone]
    assert [r.closed_tracks for r, _ in results] == [[], [], [], [first], []]
    assert [list(o) for o in opened[1:]] == [[], [], [], [gone]]
    assert opened[4][gone] not in opened[0].values()
    assert np.isfinite(row.total)
