"""Losses, ground-truth identity labeling, optimizer, and the toy trainer.

The trainer unrolls the tracker over sub-sequences of three frames with
teacher-forced track states: associations between frames come from ground
truth, only embeddings flow through the model.  Gradients propagate through
a whole sub-sequence and are cut between sub-sequences.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .config import EngineConfig
from .datatypes import Box, Pose
from .geometry import edge_features, oks_grid
from .sequence_io import SequenceFrame
from .tracker import detection_embeddings
from .transformer import TrackingModel

PROB_EPS = 1e-12
GREEDY_OKS_FLOOR = 0.3

TOY_LR = 3e-3
TOY_WARMUP_ITERS = 10
TOY_DECAY_AT = 150
TOY_DECAY_FACTOR = 10

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 0.01

DUPLICATE_PROB = 0.3
DUPLICATE_SCALE_JITTER = 0.05
DUPLICATE_SHIFT_JITTER = 3.0


# ---------------------------------------------------------------------------
# identity labels

def greedy_identity_assignment(det_poses: Sequence[Pose], gt_poses: Sequence[Pose],
                               gt_ids: Sequence[int], gt_boxes: Sequence[Box],
                               kappas, floor: float = GREEDY_OKS_FLOOR) -> List[Optional[int]]:
    """Label detections (None = unlabeled) by repeatedly taking the globally
    best detection/gt pair by shared-keypoint OKS, above a floor.  Each gt is
    used once, each detection at most once."""
    n_det, n_gt = len(det_poses), len(gt_poses)
    labels: List[Optional[int]] = [None] * n_det
    if n_det == 0 or n_gt == 0:
        return labels
    # shared OKS is symmetric in the two poses, so score with the gt first
    # (its box is the scale) and transpose to detections x gt
    sim = oks_grid(gt_poses, det_poses, [b.area for b in gt_boxes], kappas)[:, :, 0].T.copy()
    while True:
        i, j = divmod(int(np.argmax(sim)), n_gt)
        if sim[i, j] <= floor:
            break
        labels[i] = gt_ids[j]
        sim[i, :] = -np.inf
        sim[:, j] = -np.inf
    return labels


# ---------------------------------------------------------------------------
# losses

def loss_attn(attn: nn.Tensor, row_groups: Sequence[Sequence[int]]) -> nn.Tensor:
    """Duplicate-aware cross-entropy on one attention matrix.

    attn: R x (C+1) row-stochastic; row_groups[r] lists the distinct columns
    whose probability mass should jointly explain row r.  An empty group
    routes the row to the null column.
    """
    rows = attn.data.shape[0]
    n_cols = attn.data.shape[1] - 1
    if rows == 0:
        return nn.Tensor(np.zeros(()))
    if len(row_groups) != rows:
        raise ValueError("one column group required per attention row")
    mask = np.zeros(attn.data.shape)
    for r, group in enumerate(row_groups):
        mask[r, list(group) if len(group) else n_cols] = 1.0
    p = nn.reduce_sum(nn.mul(attn, mask), axis=1)
    return nn.mul(nn.reduce_sum(nn.log(nn.clip(p, PROB_EPS, 1.0))), -1.0 / rows)


def total_loss(match_term: nn.Tensor, enc_terms: Sequence[nn.Tensor],
               dec_terms: Sequence[nn.Tensor]) -> nn.Tensor:
    out = match_term
    for t in list(enc_terms) + list(dec_terms):
        out = nn.add(out, t)
    return out


# ---------------------------------------------------------------------------
# optimizer

def toy_lr(lr: float, it: int) -> float:
    """Rate at iteration `it` (from 0): a linear warm-up to `lr` over
    TOY_WARMUP_ITERS iterations, divided by TOY_DECAY_FACTOR from TOY_DECAY_AT."""
    lr *= min(1.0, (it + 1) / TOY_WARMUP_ITERS)
    if it >= TOY_DECAY_AT:
        lr /= TOY_DECAY_FACTOR
    return lr


class AdamW:
    """Decoupled-weight-decay adaptive-moments optimizer on the toy_lr
    schedule of the base rate `lr`."""

    def __init__(self, store: nn.ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.step_count = 0
        self._m = {k: np.zeros_like(t.data) for k, t in store.items()}
        self._v = {k: np.zeros_like(t.data) for k, t in store.items()}

    def step(self):
        """One update of every tensor that has a gradient, run over their
        concatenated elements; tensors whose grad is None stay untouched."""
        lr = toy_lr(self.lr, self.step_count)
        self.step_count += 1
        t = self.step_count
        live = [(name, param) for name, param in self.store.items() if param.grad is not None]
        if not live:
            return
        g = np.concatenate([param.grad.ravel() for _, param in live])
        data = np.concatenate([param.data.ravel() for _, param in live])
        m = np.concatenate([self._m[name].ravel() for name, _ in live])
        v = np.concatenate([self._v[name].ravel() for name, _ in live])
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        data = data - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + ADAM_WEIGHT_DECAY * data)
        offset = 0
        for name, param in live:
            shape, end = param.data.shape, offset + param.data.size
            self._m[name] = m[offset:end].reshape(shape)
            self._v[name] = v[offset:end].reshape(shape)
            param.data = data[offset:end].reshape(shape)
            offset = end


# ---------------------------------------------------------------------------
# toy trainer

@dataclass
class LossRow:
    iteration: int
    match: float
    enc: Tuple[float, ...]
    dec: Tuple[float, ...]
    total: float


def inject_duplicate(frame: SequenceFrame, rng: np.random.Generator) -> SequenceFrame:
    """With probability DUPLICATE_PROB, return a copy of the frame with a
    jittered copy of one labeled detection appended, sharing its identity
    and listed among the frame's duplicates."""
    labeled = [i for i, ident in enumerate(frame.identities) if ident is not None]
    if not labeled or rng.uniform() >= DUPLICATE_PROB:
        return frame
    src_idx = int(rng.choice(labeled))
    src = frame.detections[src_idx]
    scale = 1.0 + rng.uniform(-DUPLICATE_SCALE_JITTER, DUPLICATE_SCALE_JITTER)
    dx, dy = rng.uniform(-DUPLICATE_SHIFT_JITTER, DUPLICATE_SHIFT_JITTER, size=2)
    cx = (src.box.x_min + src.box.x_max) / 2 + dx
    cy = (src.box.y_min + src.box.y_max) / 2 + dy
    w = (src.box.x_max - src.box.x_min) * scale
    h = (src.box.y_max - src.box.y_min) * scale
    box = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    center = np.array([(src.box.x_min + src.box.x_max) / 2,
                       (src.box.y_min + src.box.y_max) / 2])
    coords = (src.pose.coords - center) * scale + np.array([cx, cy])
    pose = Pose(coords=coords, conf=src.pose.conf, visible=src.pose.visible)
    dup = dataclasses.replace(src, box=box, pose=pose)
    return dataclasses.replace(
        frame,
        detections=list(frame.detections) + [dup],
        identities=list(frame.identities) + [frame.identities[src_idx]],
        duplicates=frame.duplicates + (len(frame.detections),),
    )


@dataclass
class _TeacherTrack:
    """Teacher-forced track geometry, the two fields edge_features reads."""

    last_pose: Pose
    last_box: Box


def _frame_labels(frame: SequenceFrame, cfg: EngineConfig) -> List[Optional[int]]:
    """Recover detection identities by greedy OKS matching against the
    frame's own labeled poses (canonical detections, duplicates excluded),
    then copy identities onto injected duplicates by index."""
    canonical = [group[0] for group in identity_groups(frame.identities).values()]
    gt_ids = [frame.identities[i] for i in canonical]
    gt_poses = [frame.detections[i].pose for i in canonical]
    gt_boxes = [frame.detections[i].box for i in canonical]
    labels = greedy_identity_assignment(
        [d.pose for d in frame.detections], gt_poses, gt_ids, gt_boxes,
        cfg.oks_kappas)
    # injected duplicates carry their identity explicitly; trust the metadata
    for i, ident in enumerate(frame.identities):
        if ident is not None:
            labels[i] = ident
    return labels


def identity_groups(labels: Sequence[Optional[int]]) -> Dict[int, List[int]]:
    """identity -> indices of the detections carrying it (duplicate groups)."""
    out: Dict[int, List[int]] = {}
    for i, ident in enumerate(labels):
        if ident is not None:
            out.setdefault(ident, []).append(i)
    return out


def match_groups(labels: Sequence[Optional[int]], track_ids: Sequence[int]) -> List[List[int]]:
    """Per detection, its loss_attn group on the match matrix: the column of
    the track with its identity, else [] (the null column)."""
    col = {ident: j for j, ident in enumerate(track_ids)}
    return [[col[ident]] if ident in col else [] for ident in labels]


def labeled_frames(seq) -> List[SequenceFrame]:
    """The frames of a loaded sequence file, as train_toy takes them."""
    return list(seq.frames)


def subsequences(n_frames: int):
    """Start indices of 3-frame windows overlapping by one frame."""
    return list(range(0, n_frames - 2, 2))


def train_toy(sequences: Sequence[Sequence[SequenceFrame]], cfg: EngineConfig,
              seed: int = 0, n_iters: int = 200, lr: float = TOY_LR,
              model: Optional[TrackingModel] = None,
              ) -> Tuple[TrackingModel, List[LossRow]]:
    """Train the association model on labeled sequences.

    Each iteration draws one 3-frame window, teacher-forces track states
    through it, accumulates the matching and attention losses of both
    transitions (plus encoder losses on every frame), and takes one
    AdamW step at toy_lr(lr, iteration).  Returns the model and the
    per-iteration loss curve.  Without a given model, one with the backbone
    is built when some detection has only a crop, so those losses train the
    backbone too.
    """
    rng = np.random.default_rng(seed)
    if model is None:
        crops = any(d.appearance is None for seq in sequences for fr in seq
                    for d in fr.detections)
        model = TrackingModel(cfg, seed=seed, with_backbone=crops)
    opt = AdamW(model.store, lr)

    windows = [(si, start) for si, seq in enumerate(sequences)
               for start in subsequences(len(seq))]
    if not windows:
        raise ValueError("no trainable 3-frame windows in the given sequences")

    curve: List[LossRow] = []
    order: List[int] = []
    for it in range(n_iters):
        if not order:
            order = list(rng.permutation(len(windows)))
        si, start = windows[order.pop()]
        frames = [inject_duplicate(sequences[si][start + k], rng) for k in range(3)]
        row = _train_window(model, opt, frames, cfg, it)
        if not np.isfinite(row.total):
            raise RuntimeError(
                f"non-finite loss at iteration {it} (sequence {si}, frame {start})")
        curve.append(row)
    return model, curve


def _train_window(model: TrackingModel, opt: AdamW, frames: List[SequenceFrame],
                  cfg: EngineConfig, iteration: int) -> LossRow:
    n_enc = cfg.n_encoder_stages
    n_dec = cfg.n_decoder_stages
    enc_acc = [nn.Tensor(np.zeros(()))] * n_enc
    dec_acc = [nn.Tensor(np.zeros(()))] * n_dec
    match_acc = nn.Tensor(np.zeros(()))

    # teacher-forced tracks: frame 0 has none, so it runs only the encoder
    # and opens one track per identity
    e_t = nn.Tensor(np.zeros((0, cfg.d)))
    track_ids: List[int] = []
    teacher: List[_TeacherTrack] = []
    for f, frame in enumerate(frames):
        labels = _frame_labels(frame, cfg)
        groups = identity_groups(labels)
        e_d = detection_embeddings(frame.detections, model)
        if f == 0:
            enc_out, enc_attn = model.encoder_forward(e_d)
        else:
            fwd = model.forward_frame(e_t, edge_features(teacher, frame.detections, cfg), e_d)
            e_t, enc_out, enc_attn = fwd.updated_tracks, fwd.enc_out, fwd.enc_attn
            match_acc = nn.add(match_acc, loss_attn(fwd.match.fused, match_groups(labels, track_ids)))
            track_groups = [groups.get(ident, []) for ident in track_ids]
            for k in range(n_dec):
                dec_acc[k] = nn.add(dec_acc[k], loss_attn(fwd.bundles[k].fused, track_groups))
        # a labeled detection attends to its duplicate group, any other to itself
        enc_groups = [groups.get(ident, [i]) for i, ident in enumerate(labels)]
        for k in range(n_enc):
            enc_acc[k] = nn.add(enc_acc[k], loss_attn(enc_attn[k], enc_groups))
        e_t, track_ids, teacher = _advance_state(model, e_t, enc_out, frame, groups,
                                                 track_ids, teacher)

    total = total_loss(match_acc, enc_acc, dec_acc)
    model.store.zero_grad()
    total.backward()
    opt.step()
    model.store.zero_grad()
    return LossRow(
        iteration=iteration,
        match=float(match_acc.data),
        enc=tuple(float(t.data) for t in enc_acc),
        dec=tuple(float(t.data) for t in dec_acc),
        total=float(total.data),
    )


def _advance_state(model: TrackingModel, e_t: nn.Tensor, enc_out: nn.Tensor,
                   frame: SequenceFrame, groups: Dict[int, List[int]], track_ids: List[int],
                   teacher: List[_TeacherTrack]):
    """Ground-truth-matched update: existing tracks keep their embedding row
    of e_t and adopt the canonical detection geometry; unseen identities open
    teacher-forced new tracks from the new-track head on the canonical
    detection's row of enc_out."""
    new_track_ids = list(track_ids)
    new_teacher = []
    for pos, ident in enumerate(track_ids):
        group = groups.get(ident, [])
        if group:
            det = frame.detections[group[0]]
            new_teacher.append(_TeacherTrack(det.pose, det.box))
        else:
            new_teacher.append(teacher[pos])

    fresh_rows = []
    for ident, group in groups.items():
        if ident in track_ids:
            continue
        det = frame.detections[group[0]]
        new_track_ids.append(ident)
        new_teacher.append(_TeacherTrack(det.pose, det.box))
        fresh_rows.append(group[0])
    if fresh_rows:
        fresh = model.new_track_head(nn.take(enc_out, (np.asarray(fresh_rows),)))
        e_t = nn.concat([e_t, fresh], axis=0)
    return e_t, new_track_ids, new_teacher
