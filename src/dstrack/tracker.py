"""Online per-frame association and track lifecycle.

step() is the single entry point: it runs the frame through the attention
model, solves the assignment, filters duplicate detections, updates every
track embedding, opens tracks for unexplained detections and retires tracks
that have gone unmatched too long.  State is threaded functionally: step
returns a fresh TrackerState and never mutates its input.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import nn
from .config import EngineConfig
from .datatypes import Detection, Track
from .geometry import edge_features
from .transformer import FrameForward, TrackingModel

LOG_EPS = 1e-12
FORBIDDEN_COST = 1e9


@dataclass
class FrameResult:
    """Where every detection of one frame went, plus closed track ids."""

    assignments: List[Tuple[int, int]] = field(default_factory=list)  # (det idx, track id)
    duplicates: List[int] = field(default_factory=list)
    new_tracks: List[Tuple[int, int]] = field(default_factory=list)   # (det idx, track id)
    closed_tracks: List[int] = field(default_factory=list)

    def detection_partition(self, n_detections: int) -> bool:
        """True when every detection index lands in exactly one bucket."""
        return self.partition_fault(n_detections) is None

    def partition_fault(self, n_detections: int) -> Optional[str]:
        """What breaks the partition (the first index out of range, else the
        first detection not listed exactly once), or None."""
        seen = ([i for i, _ in self.assignments] + list(self.duplicates)
                + [i for i, _ in self.new_tracks])
        for i in seen:
            if not 0 <= i < n_detections:
                return (f"detection index {i} is out of range, the frame has "
                        f"{n_detections} detections")
        for i in range(n_detections):
            if seen.count(i) != 1:
                where = f"listed {seen.count(i)} times in" if i in seen else "missing from"
                return f"detection {i} is {where} assignments, duplicates and new_tracks"
        return None


@dataclass
class TrackerState:
    tracks: List[Track] = field(default_factory=list)
    next_id: int = 0


def hungarian(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def assign_and_filter(match: np.ndarray, tau_dup: float):
    """Partition detections into matched / duplicate / new.

    match: D x (T+1) row-stochastic, last column = no-match probability.
    Pairs whose probability is dominated by the no-match column are barred
    from assignment.  Detections left over are duplicates when they give
    probability above tau_dup to some track that did receive a match this
    frame, otherwise they start new tracks.

    Returns (matched pairs as (det idx, track idx), duplicate det idxs,
    new det idxs).
    """
    match = np.asarray(match, dtype=np.float64)
    n_det = match.shape[0]
    n_track = match.shape[1] - 1
    if n_det == 0:
        return [], [], []
    if n_track == 0:
        return [], [], list(range(n_det))

    probs = match[:, :n_track]
    null_col = match[:, n_track]
    allowed = probs > null_col[:, None]
    cost = -np.log(probs + LOG_EPS)
    cost[~allowed] = FORBIDDEN_COST

    matched = [(i, j) for i, j in hungarian(cost) if allowed[i, j]]
    matched_dets = {i for i, _ in matched}
    matched_tracks = sorted({j for _, j in matched})

    duplicates, new = [], []
    for i in range(n_det):
        if i in matched_dets:
            continue
        if matched_tracks and probs[i, matched_tracks].max() > tau_dup:
            duplicates.append(i)
        else:
            new.append(i)
    return matched, duplicates, new


def check_detections(dets: Sequence[Detection], cfg: EngineConfig) -> None:
    """Refuse a frame's detections that the config cannot run.

    A pose has the config's keypoint_count keypoints, which the OKS kappas
    and the backbone's heatmap channels are sized for.  A detection's
    appearance is its precomputed vector, of length d, or the backbone's
    embedding of its crop_height x crop_width crop and its pose.  A frame
    takes one of the two: when any detection lacks a vector, the backbone
    embeds every detection, so each needs a crop.
    """
    size = (cfg.crop_height, cfg.crop_width)
    for j, d in enumerate(dets):
        k = d.pose.keypoint_count
        if k != cfg.keypoint_count:
            raise ValueError(f"detection {j}: pose has {k} keypoints, "
                             f"config expects keypoint_count {cfg.keypoint_count}")
        a = d.appearance
        if a is not None and a.shape != (cfg.d,):
            got = f"length {a.shape[0]}" if a.ndim == 1 else f"shape {a.shape}"
            raise ValueError(f"detection {j}: appearance embedding has {got}, "
                             f"config expects d {cfg.d}")
        if a is None and d.crop is None:
            raise ValueError(f"detection {j}: has neither an appearance vector nor a crop")
        if d.crop is not None and d.crop.shape[1:] != size:
            raise ValueError(
                f"detection {j}: crop is {d.crop.shape[1]}x{d.crop.shape[2]}, config "
                f"expects crop_height x crop_width {size[0]}x{size[1]}")
    crop_only = next((j for j, d in enumerate(dets) if d.appearance is None), None)
    vector_only = next((j for j, d in enumerate(dets) if d.crop is None), None)
    if crop_only is not None and vector_only is not None:
        raise ValueError(
            f"detection {vector_only}: has an appearance vector but no crop, while "
            f"detection {crop_only} has only a crop; the backbone needs a crop "
            f"for every detection of the frame")


def detection_embeddings(dets: Sequence[Detection], model: TrackingModel) -> nn.Tensor:
    """D x d appearance embeddings for a frame, the one path of tracking and
    training: precomputed vectors when every detection has one, otherwise
    the pose-modulated backbone on crops.  An empty frame gives 0 x d."""
    cfg = model.cfg
    needs_backbone = any(d.appearance is None for d in dets)
    if needs_backbone and "backbone.head.w" not in model.store:
        raise RuntimeError(
            "detections lack appearance embeddings and no backbone is configured")
    check_detections(dets, cfg)
    if not needs_backbone:
        return nn.Tensor(np.stack([d.appearance for d in dets]) if dets
                         else np.zeros((0, cfg.d)))
    from .spapde import HEATMAP_KERNEL_WIDTH, appearance_embed_batch, render_heatmaps

    heats = []
    for d in dets:
        # map pose into the crop frame and render
        b = d.box
        coords = ((d.pose.coords - (b.x_min, b.y_min)) / (b.x_max - b.x_min, b.y_max - b.y_min)
                  * (cfg.crop_width, cfg.crop_height))
        heats.append(render_heatmaps(dataclasses.replace(d.pose, coords=coords),
                                     cfg.crop_height, cfg.crop_width, HEATMAP_KERNEL_WIDTH))
    crops = np.stack([d.crop for d in dets])
    return appearance_embed_batch(crops, np.stack(heats), model.store)


def _age_and_close(tracks: Sequence[Track], tau_age: int):
    """Age unmatched tracks by one frame; returns (surviving tracks, closed ids)."""
    survivors, closed = [], []
    for t in tracks:
        aged = dataclasses.replace(t, frames_since_match=t.frames_since_match + 1)
        if aged.frames_since_match > tau_age:
            closed.append(aged.id)
        else:
            survivors.append(aged)
    return survivors, closed


def step(state: TrackerState, detections: Sequence[Detection], model: TrackingModel,
         ) -> Tuple[FrameResult, TrackerState, Optional[FrameForward]]:
    """Advance the tracker by one frame.

    Returns (FrameResult, new state, FrameForward or None).  The forward
    intermediates are returned so training and diagnostics can reuse them;
    plain tracking can ignore the third element.
    """
    cfg = model.cfg
    tracks = state.tracks

    if len(detections) == 0:
        survivors, closed = _age_and_close(tracks, cfg.tau_age)
        result = FrameResult(closed_tracks=closed)
        return result, TrackerState(survivors, state.next_id), None

    e_d0 = detection_embeddings(detections, model)
    raw = edge_features(tracks, detections, cfg)
    e_t_old = np.stack([t.embedding for t in tracks]) if tracks else np.zeros((0, cfg.d))
    fwd = model.forward_frame(e_t_old, raw, e_d0)

    matched, dup_idx, new_idx = assign_and_filter(fwd.match.fused.data, cfg.tau_dup)

    next_id = state.next_id
    result = FrameResult(duplicates=list(dup_idx))
    updated = fwd.updated_tracks.data

    new_tracks: List[Track] = []
    for det_idx, track_pos in matched:
        old = tracks[track_pos]
        det = detections[det_idx]
        new_tracks.append(dataclasses.replace(
            old,
            embedding=updated[track_pos],
            last_pose=det.pose,
            last_box=det.box,
            frames_since_match=0,
        ))
        result.assignments.append((det_idx, old.id))

    # unmatched existing tracks keep their confidence-blended embedding
    matched_pos = {track_pos for _, track_pos in matched}
    unmatched_existing = [
        dataclasses.replace(t, embedding=updated[pos])
        for pos, t in enumerate(tracks) if pos not in matched_pos
    ]

    if new_idx:
        fresh_embed = model.new_track_head(
            nn.take(fwd.enc_out, (np.asarray(new_idx),))).data
        for row, det_idx in enumerate(new_idx):
            det = detections[det_idx]
            new_tracks.append(Track(
                id=next_id, embedding=fresh_embed[row], last_pose=det.pose,
                last_box=det.box))
            result.new_tracks.append((det_idx, next_id))
            next_id += 1

    survivors, closed = _age_and_close(unmatched_existing, cfg.tau_age)
    result.closed_tracks = closed
    all_tracks = sorted(new_tracks + survivors, key=lambda t: t.id)
    return result, TrackerState(all_tracks, next_id), fwd


def run_sequence(frames: Sequence[Sequence[Detection]], model: TrackingModel):
    """Track a whole sequence; yields (frame index, FrameResult, state)."""
    state = TrackerState()
    for idx, dets in enumerate(frames):
        result, state, _ = step(state, dets, model)
        yield idx, result, state
