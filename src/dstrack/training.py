"""Losses, ground-truth identity labeling, optimizer, and the toy trainer.

The trainer unrolls the tracker over windows of three frames.  Each frame's
decision comes from ground truth and tracker.advance applies it, the track
lifecycle of tracking; only embeddings flow through the model.  Gradients
propagate through a whole window and are cut between windows.
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
from .tracker import TrackerState, advance, detection_embeddings
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

    def step(self) -> float:
        """One update of every tensor that has a gradient, run over their
        concatenated elements; tensors whose grad is None stay untouched.
        Returns the rate the update used."""
        lr = toy_lr(self.lr, self.step_count)
        self.step_count += 1
        t = self.step_count
        live = [(name, param) for name, param in self.store.items() if param.grad is not None]
        if not live:
            return lr
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
        return lr


# ---------------------------------------------------------------------------
# toy trainer

@dataclass
class LossRow:
    iteration: int
    match: float
    enc: Tuple[float, ...]
    dec: Tuple[float, ...]
    total: float
    lr: float     # the rate of this iteration's AdamW step


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


def _canonical_detections(frame: SequenceFrame) -> Dict[int, int]:
    """identity -> its first detection that frame.duplicates does not list,
    the person training follows and evaluate scores; an identity whose
    every detection is listed is left out."""
    out: Dict[int, int] = {}
    for i, ident in enumerate(frame.identities):
        if ident is not None and i not in frame.duplicates:
            out.setdefault(ident, i)
    return out


def _frame_labels(frame: SequenceFrame, cfg: EngineConfig) -> List[Optional[int]]:
    """Recover detection identities by greedy OKS matching against the
    frame's canonical detections (listed duplicates excluded), then copy
    each labeled detection's identity, duplicates included, by index."""
    people = _canonical_detections(frame)
    gt = [frame.detections[i] for i in people.values()]
    labels = greedy_identity_assignment(
        [d.pose for d in frame.detections], [d.pose for d in gt], list(people),
        [d.box for d in gt], cfg.oks_kappas)
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

    Each iteration draws one 3-frame window, advances a teacher-forced
    track state through it, accumulates the matching and attention losses
    of both transitions (plus encoder losses on every frame), and takes one
    AdamW step at toy_lr(lr, iteration).  Returns the model and the
    per-iteration loss curve.  Without a given model, one with the backbone
    is built when some detection has only a crop, so those losses train the
    backbone too.  A non-finite loss raises RuntimeError.  A ValueError,
    such as a non-finite track embedding, or a FloatingPointError (under
    np.errstate(..., "raise")) is raised again naming the iteration and
    window, with the index into `sequences` as its `sequence` attribute.
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
        where = f"iteration {it} (sequence {si}, frames {frames[0].index}-{frames[-1].index})"
        try:
            row = _train_window(model, opt, frames, cfg, it)
        except (FloatingPointError, ValueError) as e:
            fault = type(e)(f"{where}: {e}")
            fault.sequence = si
            raise fault from None
        if not np.isfinite(row.total):
            raise RuntimeError(f"non-finite loss at {where}")
        curve.append(row)
    return model, curve


def _teacher_decision(frame: SequenceFrame, tracked: List[int]):
    """The ground truth's decision for tracker.advance, given each track's
    identity: a track is matched to its identity's canonical detection, an
    identity without a track opens one there, any other detection is a
    duplicate."""
    people = _canonical_detections(frame)
    matched = [(people[ident], pos) for pos, ident in enumerate(tracked) if ident in people]
    new = [i for ident, i in people.items() if ident not in tracked]
    taken = {i for i, _ in matched}.union(new)
    return matched, [i for i in range(len(frame.detections)) if i not in taken], new


def _train_window(model: TrackingModel, opt: AdamW, frames: List[SequenceFrame],
                  cfg: EngineConfig, iteration: int) -> LossRow:
    n_enc = cfg.n_encoder_stages
    n_dec = cfg.n_decoder_stages
    enc_acc = [nn.Tensor(np.zeros(()))] * n_enc
    dec_acc = [nn.Tensor(np.zeros(()))] * n_dec
    match_acc = nn.Tensor(np.zeros(()))

    # frame 0 has no tracks yet, so it runs only the encoder
    state, e_t = TrackerState(), nn.Tensor(np.zeros((0, cfg.d)))
    identity_of: Dict[int, int] = {}  # track id -> identity
    for f, frame in enumerate(frames):
        labels = _frame_labels(frame, cfg)
        groups = identity_groups(labels)
        e_d = detection_embeddings(frame.detections, model)
        tracked = [identity_of[t.id] for t in state.tracks]
        if f == 0:
            enc_out, enc_attn = model.encoder_forward(e_d)
        else:
            fwd = model.forward_frame(e_t, edge_features(state.tracks, frame.detections, cfg), e_d)
            e_t, enc_out, enc_attn = fwd.updated_tracks, fwd.enc_out, fwd.enc_attn
            match_acc = nn.add(match_acc, loss_attn(fwd.match.fused, match_groups(labels, tracked)))
            track_groups = [groups.get(ident, []) for ident in tracked]
            for k in range(n_dec):
                dec_acc[k] = nn.add(dec_acc[k], loss_attn(fwd.bundles[k].fused, track_groups))
        # a labeled detection attends to its duplicate group, any other to itself
        enc_groups = [groups.get(ident, [i]) for i, ident in enumerate(labels)]
        for k in range(n_enc):
            enc_acc[k] = nn.add(enc_acc[k], loss_attn(enc_attn[k], enc_groups))
        if f + 1 < len(frames):  # the last frame has no next frame to track into
            result, state, e_t = advance(state, frame.detections,
                                         _teacher_decision(frame, tracked), e_t, enc_out, model)
            identity_of.update((tid, labels[i]) for i, tid in result.new_tracks)

    total = match_acc
    for term in enc_acc + dec_acc:
        total = nn.add(total, term)
    model.store.zero_grad()
    total.backward()
    lr = opt.step()
    model.store.zero_grad()
    return LossRow(
        iteration=iteration,
        match=float(match_acc.data),
        enc=tuple(float(t.data) for t in enc_acc),
        dec=tuple(float(t.data) for t in dec_acc),
        total=float(total.data),
        lr=lr,
    )
