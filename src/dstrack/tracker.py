"""Online per-frame association and the one track lifecycle.

step() tracks a frame: the attention model and assign_and_filter decide
which detection matches which track, which is a duplicate and which opens a
track.  advance() applies a decision, in one pass over the tracks: it
updates every track's geometry, embedding and age, opens new tracks and
retires those unmatched too long.  Training applies the ground truth's
decision through the same advance().  State is threaded functionally: a
fresh TrackerState is returned and the input never mutated.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .config import EngineConfig
from .datatypes import Detection, Track, _frozen_array
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
    """Live tracks, the next id to hand out, and the tracks' T x d embedding
    matrix, read-only, whose row t belongs to tracks[t]."""

    tracks: List[Track] = field(default_factory=list)
    next_id: int = 0
    embeddings: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        ids = [t.id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"track id {next(i for i in ids if ids.count(i) > 1)} is repeated")
        if ids and max(ids) >= self.next_id:
            raise ValueError(f"next_id {self.next_id} must exceed every track id, "
                             f"got track id {max(ids)}")
        emb = _frozen_array(self.embeddings)
        if emb.ndim != 2 or len(emb) != len(ids):
            raise ValueError(f"embeddings must have one row per track: {len(ids)} tracks, "
                             f"shape {emb.shape}")
        if not np.isfinite(emb).all():
            raise ValueError("track embeddings must be finite")
        self.embeddings = emb


def hungarian(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs, in row order.

    Crouse's shortest-augmenting-path form of the Jonker-Volgenant
    algorithm (Crouse, IEEE TAES 2016; Jonker & Volgenant, Computing 1987),
    ported step for step from scipy's rectangular_lsap, so that it returns
    the pairs scipy's assignment solver returns, ties included:
    a tall matrix is solved transposed, each path search scans the columns
    from the last to the first, a tie for the nearest column goes to an
    unassigned one, and the duals are updated with the same float
    operations in the same order.

    Raises ValueError for a NaN or -inf entry, and when +inf entries leave
    no assignment of min(n, m) pairs at a finite cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.size == 0:
        return []
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost matrix contains NaN or -inf entries")
    n_rows, n_cols = cost.shape
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols

    for cur_row in range(n_rows):
        # shortest augmenting path from cur_row to an unassigned column
        shortest = [inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen: List[int] = []
        cols_seen: List[int] = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    index, lowest = it, s
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    if transpose:  # col4row[k] is the input row paired with input column k
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(col4row))


def assign_and_filter(match: np.ndarray):
    """Partition detections into matched / duplicate / new by one rule.

    match: D x (T+1) row-stochastic, last column = no-match (null)
    probability.  A detection-track pair is allowed when its probability
    beats the row's null column, and only allowed pairs are assigned.  A
    detection left unmatched is a duplicate when some track is allowed for
    it (its best track beats the null column), otherwise it starts a new
    track.

    That track always received a match this frame.  Every allowed cost is
    at most -log(LOG_EPS) ~ 27.6, so FORBIDDEN_COST exceeds the sum of the
    min(D, T) costs of any allowed pairs, and the solver returns a maximum
    matching on the allowed pairs: no unmatched detection has an allowed
    track that is also unmatched.

    The null column, not a fixed probability, decides.  A detection that
    loses track 0 to another detection and puts 0.35 on it against a null
    of 0.30 is a duplicate; one that puts 0.45 on it against a null of
    0.50 is new.

    Returns (matched pairs as (det idx, track idx), duplicate det idxs,
    new det idxs).
    """
    match = np.asarray(match, dtype=np.float64)
    n_track = match.shape[1] - 1
    probs = match[:, :n_track]
    allowed = probs > match[:, n_track:]
    cost = -np.log(probs + LOG_EPS)
    cost[~allowed] = FORBIDDEN_COST

    matched = [(i, j) for i, j in hungarian(cost) if allowed[i, j]]
    matched_dets = {i for i, _ in matched}
    duplicates, new = [], []
    for i in range(len(match)):
        if i in matched_dets:
            continue
        if allowed[i].any():
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


def step(state: TrackerState, detections: Sequence[Detection], model: TrackingModel,
         ) -> Tuple[FrameResult, TrackerState, Optional[FrameForward]]:
    """Track one frame: the model pass and assign_and_filter decide, and
    advance() applies the decision.  A frame without detections runs no
    model: nothing is matched, and every track keeps its embedding and ages.

    Returns (FrameResult, new state, FrameForward or None for a frame
    without detections).
    """
    fwd = None
    updated, enc_out, decision = state.embeddings, None, ([], [], [])
    if detections:
        e_t = state.embeddings if state.tracks else np.zeros((0, model.cfg.d))
        fwd = model.forward_frame(e_t, edge_features(state.tracks, detections, model.cfg),
                                  detection_embeddings(detections, model))
        updated, enc_out = fwd.updated_tracks, fwd.enc_out
        decision = assign_and_filter(fwd.match.fused.data)
    result, state, _ = advance(state, detections, decision, updated, enc_out, model)
    return result, state, fwd


def advance(state: TrackerState, detections: Sequence[Detection], decision,
            updated, enc_out: Optional[nn.Tensor], model: TrackingModel,
            ) -> Tuple[FrameResult, TrackerState, nn.Tensor]:
    """Apply a decision (matched (det idx, track position) pairs, duplicate
    and new det idxs) to the state, in one pass over the tracks.

    Every track takes its row of updated, the T x d embeddings after the
    frame, and a matched one its detection's pose and box and age 0.  An
    unmatched track ages by one frame while unmatched fewer than tau_age
    frames, else its id is closed.  A new detection opens a track with the
    next id and the new-track head's embedding of its row of enc_out.

    Returns (FrameResult, new state with tracks sorted by id, the new
    embeddings as one tensor on the tape of updated and enc_out).
    """
    matched, duplicates, new = decision
    tracks = state.tracks
    updated = nn.as_tensor(updated)
    result = FrameResult(assignments=[(det_idx, tracks[pos].id) for det_idx, pos in matched],
                         duplicates=list(duplicates))
    det_of = {pos: det_idx for det_idx, pos in matched}
    kept: List[Tuple[Track, int]] = []  # (track, its row of updated, then of the new rows)
    for pos, t in enumerate(tracks):
        if pos in det_of:
            det = detections[det_of[pos]]
            pose, box, age = det.pose, det.box, 0
        elif t.frames_since_match < model.cfg.tau_age:
            pose, box, age = t.last_pose, t.last_box, t.frames_since_match + 1
        else:
            result.closed_tracks.append(t.id)
            continue
        kept.append((Track(id=t.id, last_pose=pose, last_box=box, frames_since_match=age), pos))

    embeddings, next_id = updated, state.next_id
    if new:
        fresh = model.new_track_head(nn.take(enc_out, (np.asarray(new),)))
        embeddings = nn.concat([updated, fresh], axis=0)
        for row, det_idx in enumerate(new, start=len(tracks)):
            det = detections[det_idx]
            kept.append((Track(id=next_id, last_pose=det.pose, last_box=det.box), row))
            result.new_tracks.append((det_idx, next_id))
            next_id += 1
    kept.sort(key=lambda pair: pair[0].id)
    rows = [row for _, row in kept]
    if rows != list(range(len(embeddings.data))):
        embeddings = nn.take(embeddings, (np.asarray(rows, dtype=np.intp),))
    return result, TrackerState([t for t, _ in kept], next_id, embeddings.data), embeddings


def run_sequence(frames: Sequence[Sequence[Detection]], model: TrackingModel):
    """Track a whole sequence; yields (frame index, FrameResult, state)."""
    state = TrackerState()
    for idx, dets in enumerate(frames):
        result, state, _ = step(state, dets, model)
        yield idx, result, state
